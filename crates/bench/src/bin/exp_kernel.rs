//! DP-kernel throughput sweep: the scalar reference vs the production
//! profiled kernel.
//!
//! Times the free `p_score` (the scalar reference kernel) against
//! `DpWorkspace::p_score` (the production path, which profiles every
//! grid point here: all of them exceed `PROFILE_MIN_CELLS`) over a
//! grid of word lengths × alphabet sizes × σ densities, reports
//! cells/s, and cross-checks that both return bit-identical scores on
//! every grid point. Full release runs additionally assert:
//!
//! - profiled ≥ 2x scalar on the long-word grid, and
//! - the assignment-relaxation `score_upper_bound` is *strictly*
//!   tighter than the old min-mass × σ_max bound on the simulator's
//!   default grid.
//!
//! Writes `BENCH_kernel.json`. Pass `--smoke` for a quick CI-sized run
//! that skips the timing-sensitive assertions.

use fragalign::align::{p_score, DpWorkspace};
use fragalign::model::{Instance, ScoreTable, Sym};
use fragalign_bench::{sim_instance, word, Stream};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Config {
    smoke: bool,
    release: bool,
    /// Timing repetitions per (point, kernel); best-of is reported.
    reps: usize,
}

#[derive(Serialize)]
struct Point {
    rows: usize,
    cols: usize,
    syms: u32,
    density_pct: u64,
    cells: u64,
    score: i64,
    scalar_cells_per_s: f64,
    profiled_cells_per_s: f64,
    speedup_profiled: f64,
}

#[derive(Serialize)]
struct BoundPoint {
    regions: usize,
    frags: usize,
    seed: u64,
    assignment_bound: i64,
    naive_bound: i64,
}

#[derive(Serialize)]
struct Report {
    config: Config,
    points: Vec<Point>,
    /// Mean profiled-vs-scalar speedup over the long-word grid points.
    long_word_speedup: f64,
    bounds: Vec<BoundPoint>,
    deterministic: bool,
}

/// Word lengths at or above this count as the "long-word grid" for the
/// ≥ 2x speedup floor: long enough that the per-fill profile build is
/// noise next to the O(n·m) sweep.
const LONG_WORD: usize = 1024;

/// A score table over `syms` × `syms` forward pairs where each pair
/// gets an explicit entry with probability `density_pct`%. The shared
/// [`fragalign_bench::table`] builder has a fixed ~4/9 density; the
/// kernel sweep needs density as an axis because it sets the profile
/// build strategy (sparse scatter vs dense probe).
fn density_table(seed: u64, syms: u32, density_pct: u64) -> ScoreTable {
    let mut t = ScoreTable::new();
    let mut s = Stream(seed | 1);
    for a in 0..syms {
        for b in 0..syms {
            if s.below(100) < density_pct {
                t.set(Sym::fwd(a), Sym::fwd(1000 + b), 1 + s.below(4) as i64);
            }
        }
    }
    t
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let release = !cfg!(debug_assertions);
    let reps = if smoke { 2 } else { 5 };
    println!("exp_kernel: DP kernel throughput sweep (smoke={smoke}, release={release})");

    let lengths: &[usize] = if smoke {
        &[64, 256, LONG_WORD]
    } else {
        &[64, 256, LONG_WORD, 4 * LONG_WORD]
    };
    let alphabets: &[u32] = &[4, 32, 256];
    let densities: &[u64] = &[10, 45, 90];

    let mut ws = DpWorkspace::new();
    let mut points = Vec::new();
    for &len in lengths {
        for &syms in alphabets {
            for &density in densities {
                let sigma = density_table(7 + density, syms, density);
                let u = word(11 + syms as u64, len, syms, 0);
                let v = word(13 + density, len, syms, 1000);
                let cells = (len * len) as u64;

                // Warm-up + differential check first, so a kernel bug
                // fails loudly before any timing output.
                let scalar = p_score(&sigma, &u, &v);
                let profiled = ws.p_score(&sigma, &u, &v);
                assert_eq!(
                    profiled, scalar,
                    "profiled kernel disagrees with scalar at len={len} syms={syms} \
                     density={density}%"
                );

                let t_scalar = best_secs(reps, || p_score(&sigma, &u, &v));
                let t_profiled = best_secs(reps, || ws.p_score(&sigma, &u, &v));

                let point = Point {
                    rows: len,
                    cols: len,
                    syms,
                    density_pct: density,
                    cells,
                    score: scalar,
                    scalar_cells_per_s: cells as f64 / t_scalar,
                    profiled_cells_per_s: cells as f64 / t_profiled,
                    speedup_profiled: t_scalar / t_profiled,
                };
                println!(
                    "  len={len:>5} syms={syms:>3} density={density:>2}%  \
                     scalar {:>7.1} Mc/s  profiled {:>7.1} Mc/s ({:.2}x)",
                    point.scalar_cells_per_s / 1e6,
                    point.profiled_cells_per_s / 1e6,
                    point.speedup_profiled,
                );
                points.push(point);
            }
        }
    }

    let long: Vec<&Point> = points.iter().filter(|p| p.rows >= LONG_WORD).collect();
    let long_word_speedup =
        long.iter().map(|p| p.speedup_profiled).sum::<f64>() / long.len().max(1) as f64;
    println!("\nlong-word (len >= {LONG_WORD}) mean profiled speedup: {long_word_speedup:.2}x");
    if release && !smoke {
        assert!(
            long_word_speedup >= 2.0,
            "profiled kernel must average >= 2x scalar on the long-word grid \
             (got {long_word_speedup:.2}x)"
        );
    } else {
        println!("(speedup floor not asserted: needs a full release run)");
    }

    // Assignment-relaxation bound vs the old min-mass × σ_max bound on
    // the simulator's default grid.
    let mut bounds = Vec::new();
    for &regions in &[60usize, 120, 240] {
        for &frags in &[4usize, 8] {
            for seed in 1..=3u64 {
                let inst: Instance = sim_instance(regions, frags, seed);
                let b = BoundPoint {
                    regions,
                    frags,
                    seed,
                    assignment_bound: inst.score_upper_bound(),
                    naive_bound: inst.score_upper_bound_naive(),
                };
                if release && !smoke {
                    assert!(
                        b.assignment_bound < b.naive_bound,
                        "assignment bound {} must be strictly tighter than naive {} \
                         (regions={regions} frags={frags} seed={seed})",
                        b.assignment_bound,
                        b.naive_bound,
                    );
                }
                bounds.push(b);
            }
        }
    }
    let tighter = bounds
        .iter()
        .filter(|b| b.assignment_bound < b.naive_bound)
        .count();
    println!(
        "assignment bound strictly tighter on {tighter}/{} sim grid points",
        bounds.len()
    );

    let report = Report {
        config: Config {
            smoke,
            release,
            reps,
        },
        points,
        long_word_speedup,
        bounds,
        deterministic: true,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write("BENCH_kernel.json", json).expect("write BENCH_kernel.json");
    println!("wrote BENCH_kernel.json");
}
