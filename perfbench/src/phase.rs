//! The timed phase every workload shares: a time budget with a floor
//! on op count, the wall-clock and process-CPU time of the measured
//! calls, and the set-up timings taken between those calls.

use crate::inputs::{decode_all, Input};
use crate::stats::min_samples_for_tail;
use crate::sys::process_cpu_time;
use fragalign::model::Instance;
use std::time::{Duration, Instant};

/// When a timed phase stops: after `budget` has elapsed *and* enough
/// ops ran for the tail percentile to have its ten samples beyond.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall-clock time to measure for.
    pub time: Duration,
    /// Least number of ops.
    pub min_ops: usize,
}

impl Budget {
    /// A budget of `seconds` with the op floor of `tail_q`.
    pub fn new(seconds: f64, tail_q: f64) -> Self {
        Budget {
            time: Duration::from_secs_f64(seconds),
            min_ops: min_samples_for_tail(tail_q),
        }
    }
}

/// Wall-clock and process-CPU time summed over the measured calls of
/// a timed phase. Work between calls — checking outputs, building the
/// next batch — is not counted.
#[derive(Default)]
pub struct Stopwatch {
    wall: Duration,
    cpu: Duration,
}

impl Stopwatch {
    /// Run `f` as a measured call.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (wall, cpu) = (Instant::now(), process_cpu_time());
        let out = f();
        self.wall += wall.elapsed();
        self.cpu += process_cpu_time() - cpu;
        out
    }

    /// Whether a phase that has run `ops` ops is done.
    pub fn done(&self, budget: &Budget, ops: usize) -> bool {
        ops >= budget.min_ops && self.wall >= budget.time
    }

    /// (wall seconds, CPU seconds) of the measured calls.
    pub fn read(&self) -> (f64, f64) {
        (self.wall.as_secs_f64(), self.cpu.as_secs_f64())
    }
}

/// Set-up timings of one run, taken many times over between the
/// measured calls of its timed phase. The host's speed swings within
/// seconds, so set-up timed at a few moments would land wholly in a
/// fast or a slow phase; samples spread over the whole run follow it
/// the way the run's own ops do. The run reports their median.
#[derive(Default)]
pub struct SetupTimer {
    times: Vec<f64>,
}

impl SetupTimer {
    /// Time one set-up and return what it built.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.times.push(t.elapsed().as_secs_f64());
        out
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// The median set-up time, seconds.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times).expect("at least one set-up was timed")
    }
}

/// The set-up of the batch workloads, decoding every instance of the
/// pool from its JSON, timed in parts: the pool is cut into equal
/// parts, decoded whole once before the timed phase, and then part by
/// part in round robin between the phase's measured calls. The set-up
/// time is the sum over the parts of each part's median. Small parts
/// taken often sample the host's swings far more finely than whole
/// decodes of the pool at the same cost.
pub struct PoolDecode<'a> {
    inputs: &'a [Input],
    parts: Vec<SetupTimer>,
    next: usize,
}

impl<'a> PoolDecode<'a> {
    /// Decode the whole pool once, timing each of its `parts` parts.
    pub fn new(inputs: &'a [Input], parts: usize) -> (Self, Vec<Instance>) {
        let mut pool = PoolDecode {
            inputs,
            parts: (0..parts).map(|_| SetupTimer::default()).collect(),
            next: 0,
        };
        let insts = (0..parts).flat_map(|_| pool.sample()).collect();
        (pool, insts)
    }

    /// Decode the next part of the pool, round robin.
    pub fn sample(&mut self) -> Vec<Instance> {
        let (i, n) = (self.next, self.parts.len());
        self.next = (i + 1) % n;
        let part = &self.inputs[i * self.inputs.len() / n..(i + 1) * self.inputs.len() / n];
        self.parts[i].time(|| decode_all(part))
    }

    /// Seconds to decode the pool: Σ of each part's median.
    pub fn setup_s(&self) -> f64 {
        self.parts.iter().map(SetupTimer::median).sum()
    }
}
