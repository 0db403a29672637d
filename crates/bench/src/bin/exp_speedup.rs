//! Experiment T8: parallel speedup on the real thread pool.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_speedup           # full run
//! cargo run --release -p fragalign-bench --bin exp_speedup -- --smoke
//! ```
//!
//! Since the rayon shim rebuild the pool runs real `std::thread`
//! workers, so these numbers are hardware-bound, not shim-bound. Two
//! workloads sweep pools of 1/2/4/8 threads:
//!
//! 1. **batch** — `solve_batch` with `csr` over a seeded sim batch
//!    (the embarrassingly parallel headline workload);
//! 2. **portfolio** — the racing meta-solver, one instance at a time
//!    at top level so its racers genuinely fan out across pool
//!    workers (inside `solve_batch` they would run inline on one
//!    batch worker — instance-level parallelism would be measured
//!    instead).
//!
//! Every sweep asserts bit-identical results across thread counts, and
//! on hardware with ≥ 4 cores a release run asserts the batch workload
//! reaches ≥ 1.5× at 4 threads. Emits machine-readable
//! `BENCH_speedup.json` so the perf trajectory across PRs has data
//! points.

use fragalign::model::Instance;
use fragalign::par::speedup_sweep;
use fragalign::prelude::*;
use fragalign::sim::gen_batch;
use serde::Serialize;

#[derive(Serialize)]
struct Config {
    smoke: bool,
    batch_instances: usize,
    batch_regions: usize,
    batch_frags: usize,
    portfolio_instances: usize,
    available_cores: usize,
    release: bool,
}

#[derive(Serialize)]
struct Point {
    threads: usize,
    pool_threads: usize,
    seconds: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Workload {
    name: String,
    points: Vec<Point>,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    workloads: Vec<Workload>,
    /// The headline number: batch wall-clock speedup at 4 threads.
    batch_speedup_4t: f64,
    /// Whether every sweep returned bit-identical results at every
    /// thread count (asserted, so a written report always says true).
    deterministic: bool,
}

/// One canonical sweep: 1/2/4/8-thread pools via [`speedup_sweep`],
/// which itself asserts bit-identical results at every width. The
/// workload runs once untimed first so no point pays first-touch
/// costs (page faults, lazy pool construction).
fn sweep<T, F>(name: &str, workload: &F) -> Workload
where
    T: Send + PartialEq + std::fmt::Debug,
    F: Fn() -> T + Sync,
{
    let _ = workload(); // untimed warm-up
    Workload {
        name: name.to_owned(),
        points: speedup_sweep(8, workload)
            .into_iter()
            .map(to_point)
            .collect(),
    }
}

fn to_point(p: fragalign::par::SpeedupPoint) -> Point {
    Point {
        threads: p.threads,
        pool_threads: p.pool_threads,
        seconds: p.elapsed.as_secs_f64(),
        speedup: p.speedup,
    }
}

/// One portfolio outcome per instance: total score plus winner name.
type RaceOutcomes = Vec<(i64, Option<String>)>;

fn print_workload(w: &Workload) {
    println!("\n{}:", w.name);
    println!("{:>8} {:>10} {:>8}", "threads", "time (ms)", "speedup");
    for p in &w.points {
        println!(
            "{:>8} {:>10.1} {:>8.2}",
            p.threads,
            p.seconds * 1e3,
            p.speedup
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (batch_n, regions, frags, portfolio_n) = if smoke { (8, 12, 3, 3) } else { (32, 20, 4, 6) };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let release = !cfg!(debug_assertions);
    println!(
        "exp_speedup: real-thread speedup sweep ({batch_n} batch instances, {regions} regions, \
         {frags} frags, {cores} cores, smoke={smoke}, release={release})"
    );

    let batch: Vec<Instance> = gen_batch(
        &SimConfig {
            regions,
            h_frags: frags,
            m_frags: frags,
            loss_rate: 0.1,
            shuffles: 1,
            spurious: 2,
            seed: 8080,
            ..SimConfig::default()
        },
        batch_n,
    )
    .into_iter()
    .map(|s| s.instance)
    .collect();
    let batch_opts = BatchOptions::new("csr");
    let batch_ref = &batch;
    let batch_workload = sweep("batch (csr)", &move || {
        solve_batch(batch_ref, &batch_opts).expect("batch solves")
    });

    let portfolio_batch: Vec<Instance> = batch.iter().take(portfolio_n).cloned().collect();
    let reg = SolverRegistry::global();
    let portfolio_ref = &portfolio_batch;
    let portfolio_workload = sweep("portfolio race", &move || -> RaceOutcomes {
        // One instance at a time at top level, so the racers (not the
        // batch) are what fans out across the pool.
        portfolio_ref
            .iter()
            .map(|inst| {
                let run = reg
                    .solve("portfolio", inst, EngineOptions::default())
                    .expect("portfolio races everywhere");
                (run.score, run.report.winner)
            })
            .collect()
    });

    for w in [&batch_workload, &portfolio_workload] {
        print_workload(w);
    }

    let batch_speedup_4t = batch_workload
        .points
        .iter()
        .find(|p| p.threads == 4)
        .map(|p| p.speedup)
        .unwrap_or(0.0);
    println!("\nbatch speedup at 4 threads: {batch_speedup_4t:.2}x");
    if release && cores >= 4 {
        assert!(
            batch_speedup_4t >= 1.5,
            "4-thread batch run must be >= 1.5x the 1-thread run on >= 4 cores \
             (got {batch_speedup_4t:.2}x)"
        );
    } else {
        println!(
            "(speedup floor not asserted: needs a release build and >= 4 cores; \
             this host has {cores})"
        );
    }

    let report = Report {
        config: Config {
            smoke,
            batch_instances: batch_n,
            batch_regions: regions,
            batch_frags: frags,
            portfolio_instances: portfolio_n,
            available_cores: cores,
            release,
        },
        workloads: vec![batch_workload, portfolio_workload],
        batch_speedup_4t,
        deterministic: true,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_speedup.json", json).expect("write BENCH_speedup.json");
    println!("wrote BENCH_speedup.json");
}
