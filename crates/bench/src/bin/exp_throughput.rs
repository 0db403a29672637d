//! Experiment: batch-solving throughput and the workspace-reuse
//! ablation. Emits machine-readable `BENCH_throughput.json` so the
//! perf trajectory across PRs has data points.
//!
//! ```sh
//! cargo run --release -p fragalign-bench --bin exp_throughput          # full run
//! cargo run --release -p fragalign-bench --bin exp_throughput -- --smoke
//! ```
//!
//! Three measurements, all on the ambient rayon pool — real threads
//! since the shim rebuild, so `instances/sec` here reflects whatever
//! parallelism the host offers (the dedicated thread-scaling story
//! lives in `exp_speedup` / `BENCH_speedup.json`). The reuse-vs-
//! baseline ratios stay meaningful because both modes run on the same
//! pool:
//!
//! 1. **pipeline stages** — generate a batch, solve it with the
//!    per-call-allocation baseline (`reuse_workspaces = false`), solve
//!    it again with pooled workspaces, and time each stage;
//! 2. **kernel ablation** — the same site-pair `MS` workload through
//!    three kernels: the pre-workspace allocating free function
//!    (`ms_words`: fresh rows + reversed-word vec per call, no
//!    shortcuts), the workspace kernel with a *fresh* workspace per
//!    call (positive-cell early exit and profiled kernel, but every fill
//!    re-allocates), and the workspace kernel with one *warm*
//!    workspace. The first ratio is the end-to-end kernel win; the
//!    second isolates pure buffer reuse;
//! 3. **allocations proxy** — oracle `dp_fills` vs `dp_reallocs`
//!    (buffer growth events): the baseline grows buffers on ~every
//!    fill, the pooled workspace a bounded number of times.

use fragalign::align::{ms_words, DpWorkspace, ScoreOracle};
use fragalign::model::{Instance, Sym};
use fragalign::prelude::*;
use fragalign::sim::gen_batch;
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::time::Instant;

#[derive(Serialize)]
struct Config {
    instances: usize,
    regions: usize,
    frags: usize,
    algo: String,
    kernel_repeats: usize,
    smoke: bool,
    /// Width of the ambient rayon pool the batch stages ran on.
    pool_threads: usize,
}

#[derive(Serialize)]
struct Stage {
    name: String,
    seconds: f64,
}

#[derive(Serialize)]
struct Kernel {
    site_pairs: usize,
    repeats: usize,
    /// Pre-workspace baseline: the allocating `ms_words` free function.
    seconds_free_fn: f64,
    /// Workspace kernel, fresh workspace per call (allocating).
    seconds_fresh_workspace: f64,
    /// Workspace kernel, one warm workspace (non-allocating).
    seconds_warm_workspace: f64,
    /// End-to-end kernel win: free function vs warm workspace.
    speedup_vs_free_fn: f64,
    /// Pure buffer-reuse effect: fresh vs warm workspace.
    speedup_vs_fresh_workspace: f64,
}

#[derive(Serialize)]
struct AllocProxy {
    baseline_dp_fills: u64,
    baseline_dp_reallocs: u64,
    reuse_dp_fills: u64,
    reuse_dp_reallocs: u64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    stages: Vec<Stage>,
    instances_per_sec_baseline: f64,
    instances_per_sec_reuse: f64,
    batch_speedup_reuse: f64,
    kernel: Kernel,
    alloc_proxy: AllocProxy,
}

/// All whole-fragment vs whole-fragment word pairs of a batch — the
/// shape of the oracle's site-pair workload. Each pair keeps the index
/// of the instance whose σ scores it.
fn site_pair_words(instances: &[Instance]) -> Vec<(usize, Vec<Sym>, Vec<Sym>)> {
    let mut out = Vec::new();
    for (idx, inst) in instances.iter().enumerate() {
        for h in &inst.h {
            for m in &inst.m {
                out.push((idx, h.regions.clone(), m.regions.clone()));
            }
        }
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_instances, regions, frags, kernel_repeats) = if smoke {
        (4, 12, 3, 20)
    } else {
        (32, 24, 4, 200)
    };
    let algo = "csr";

    println!("exp_throughput: batch pipeline ({n_instances} instances, {regions} regions, {frags} frags, algo {algo}, smoke={smoke})");

    // Stage 1: generate.
    let t0 = Instant::now();
    let sims = gen_batch(
        &SimConfig {
            regions,
            h_frags: frags,
            m_frags: frags,
            seed: 2002,
            ..SimConfig::default()
        },
        n_instances,
    );
    let gen_s = t0.elapsed().as_secs_f64();
    let instances: Vec<Instance> = sims.into_iter().map(|s| s.instance).collect();

    // Warm-up: one untimed solve so neither timed mode pays the
    // first-touch cost (page faults, branch history) for the other.
    let mut baseline_opts = BatchOptions::new(algo);
    baseline_opts.engine.reuse_workspaces = false;
    let _ = solve_batch(&instances[..n_instances.min(2)], &baseline_opts);

    // Stage 2: solve with the per-call-allocation baseline.
    let t0 = Instant::now();
    let baseline = solve_batch(&instances, &baseline_opts).expect("csr is registered");
    let solve_baseline_s = t0.elapsed().as_secs_f64();

    // Stage 3: solve with pooled workspaces.
    let reuse_opts = BatchOptions::new(algo);
    let t0 = Instant::now();
    let reused = solve_batch(&instances, &reuse_opts).expect("csr is registered");
    let solve_reuse_s = t0.elapsed().as_secs_f64();
    assert_eq!(baseline, reused, "workspace reuse must not change results");

    // Stage 4: verify (consistency over the whole batch).
    let t0 = Instant::now();
    for (inst, sol) in instances.iter().zip(&reused) {
        check_consistency(inst, &sol.matches).expect("batch solutions are consistent");
    }
    let verify_s = t0.elapsed().as_secs_f64();

    // Kernel ablation: the identical MS workload through three kernel
    // variants; all three must agree bit-for-bit.
    let pairs = site_pair_words(&instances);
    let t0 = Instant::now();
    let mut acc_free = 0i64;
    for _ in 0..kernel_repeats {
        for (idx, u, v) in &pairs {
            acc_free += ms_words(&instances[*idx].sigma, u, v).0;
        }
    }
    let kernel_free_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut acc_fresh = 0i64;
    for _ in 0..kernel_repeats {
        for (idx, u, v) in &pairs {
            acc_fresh += DpWorkspace::new().ms_words(&instances[*idx].sigma, u, v).0;
        }
    }
    let kernel_fresh_s = t0.elapsed().as_secs_f64();
    let mut ws = DpWorkspace::new();
    let t0 = Instant::now();
    let mut acc_warm = 0i64;
    for _ in 0..kernel_repeats {
        for (idx, u, v) in &pairs {
            acc_warm += ws.ms_words(&instances[*idx].sigma, u, v).0;
        }
    }
    let kernel_warm_s = t0.elapsed().as_secs_f64();
    assert_eq!(acc_free, acc_warm, "kernels must agree");
    assert_eq!(acc_fresh, acc_warm, "fresh/warm workspaces must agree");

    // Allocations proxy: fill every interval table of one instance
    // under both oracle modes.
    let probe = &instances[0];
    let fill_all = |oracle: &ScoreOracle<'_>| {
        for h in probe.frag_ids(Species::H) {
            for m in probe.frag_ids(Species::M) {
                let _ = oracle.interval_table(h, m);
                let _ = oracle.interval_table(m, h);
            }
        }
    };
    let oracle_baseline = ScoreOracle::with_workspace_reuse(probe, false);
    fill_all(&oracle_baseline);
    let oracle_reuse = ScoreOracle::with_workspace_reuse(probe, true);
    fill_all(&oracle_reuse);
    let alloc_proxy = AllocProxy {
        baseline_dp_fills: oracle_baseline.stats.dp_fills.load(Ordering::Relaxed),
        baseline_dp_reallocs: oracle_baseline.stats.dp_reallocs.load(Ordering::Relaxed),
        reuse_dp_fills: oracle_reuse.stats.dp_fills.load(Ordering::Relaxed),
        reuse_dp_reallocs: oracle_reuse.stats.dp_reallocs.load(Ordering::Relaxed),
    };

    let report = Report {
        config: Config {
            instances: n_instances,
            regions,
            frags,
            algo: algo.to_string(),
            kernel_repeats,
            smoke,
            pool_threads: fragalign::par::current_threads(),
        },
        stages: vec![
            Stage {
                name: "gen".into(),
                seconds: gen_s,
            },
            Stage {
                name: "solve_baseline".into(),
                seconds: solve_baseline_s,
            },
            Stage {
                name: "solve_reuse".into(),
                seconds: solve_reuse_s,
            },
            Stage {
                name: "verify".into(),
                seconds: verify_s,
            },
        ],
        instances_per_sec_baseline: n_instances as f64 / solve_baseline_s.max(1e-9),
        instances_per_sec_reuse: n_instances as f64 / solve_reuse_s.max(1e-9),
        batch_speedup_reuse: solve_baseline_s / solve_reuse_s.max(1e-9),
        kernel: Kernel {
            site_pairs: pairs.len(),
            repeats: kernel_repeats,
            seconds_free_fn: kernel_free_s,
            seconds_fresh_workspace: kernel_fresh_s,
            seconds_warm_workspace: kernel_warm_s,
            speedup_vs_free_fn: kernel_free_s / kernel_warm_s.max(1e-9),
            speedup_vs_fresh_workspace: kernel_fresh_s / kernel_warm_s.max(1e-9),
        },
        alloc_proxy,
    };

    println!(
        "stages: gen {:.3}s, solve(baseline) {:.3}s, solve(reuse) {:.3}s, verify {:.3}s",
        gen_s, solve_baseline_s, solve_reuse_s, verify_s
    );
    println!(
        "throughput: {:.1} inst/s baseline, {:.1} inst/s reuse ({:.2}x)",
        report.instances_per_sec_baseline,
        report.instances_per_sec_reuse,
        report.batch_speedup_reuse
    );
    println!(
        "kernel MS workload ({} pairs x {}): {:.3}s free fn, {:.3}s fresh ws, {:.3}s warm ws ({:.2}x vs free fn, {:.2}x vs fresh ws)",
        report.kernel.site_pairs,
        report.kernel.repeats,
        kernel_free_s,
        kernel_fresh_s,
        kernel_warm_s,
        report.kernel.speedup_vs_free_fn,
        report.kernel.speedup_vs_fresh_workspace
    );
    println!(
        "alloc proxy (one instance, all interval tables): baseline {} fills / {} reallocs; reuse {} fills / {} reallocs",
        report.alloc_proxy.baseline_dp_fills,
        report.alloc_proxy.baseline_dp_reallocs,
        report.alloc_proxy.reuse_dp_fills,
        report.alloc_proxy.reuse_dp_reallocs
    );

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_throughput.json", json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
