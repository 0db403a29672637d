//! fragalign's benchmark: three workloads, each run either timed (the
//! end-to-end metrics, tracing off) or traced (the per-layer metrics).
//! See `README.md` in this directory for every metric, workload and
//! noise control.

pub mod checks;
pub mod genome;
pub mod inputs;
pub mod layers;
pub mod phase;
pub mod report;
pub mod serve;
pub mod shred;
pub mod spans;
pub mod stats;
pub mod sys;

/// What a traced run produced.
pub struct Traced {
    /// Per-layer readings.
    pub layers: layers::Layers,
    /// Ops attempted across the traced run's phases.
    pub attempted: u64,
    /// Ops whose output failed a check (including the width-1
    /// reference comparison).
    pub failed: u64,
    /// Every check failure, described.
    pub problems: Vec<String>,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of 120-region genome solves.
    GenomeSolve,
    /// Batch calls over torn-paper and read-soup instances.
    ShredBatch,
    /// Open-loop HTTP traffic with cache hits and misses.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GenomeSolve,
        Workload::ShredBatch,
        Workload::ServeMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenomeSolve => "genome-solve",
            Workload::ShredBatch => "shred-batch",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed run: end-to-end metrics and check failures.
    pub fn run(self, seed: u64, seconds: f64) -> std::io::Result<report::EndToEnd> {
        match self {
            Workload::GenomeSolve => genome::run(seed, seconds),
            Workload::ShredBatch => shred::run(seed, seconds),
            Workload::ServeMix => serve::run(seed, seconds),
        }
    }

    /// The traced run: per-layer metrics and check failures.
    pub fn run_traced(self, seed: u64, seconds: f64) -> std::io::Result<Traced> {
        match self {
            Workload::GenomeSolve => Ok(genome::run_traced(seed, seconds)),
            Workload::ShredBatch => Ok(shred::run_traced(seed, seconds)),
            Workload::ServeMix => serve::run_traced(seed, seconds),
        }
    }
}
