//! Parallel scaling of the improvement-attempt evaluation.
//!
//! ```sh
//! cargo run --release --example parallel_speedup
//! ```
//!
//! The IPPS venue context: the paper's era evaluated on small
//! clusters; our substitute is shared-memory data parallelism. This
//! example runs the `CSR_Improve` attempt evaluation — where the
//! improvement loop spends its time — under pools of increasing
//! width, asserting identical results (integer scores make the
//! parallel reduction exact).

use fragalign::par::with_threads;
use fragalign::prelude::*;
use fragalign::sim::generate;

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("available cores: {cores}");

    println!("\n== CSR_Improve attempt evaluation ==");
    let sim = generate(&SimConfig {
        regions: 20,
        h_frags: 4,
        m_frags: 4,
        seed: 11,
        ..SimConfig::default()
    });
    println!("threads  time(ms)  score");
    let mut scores = Vec::new();
    let mut t_count = 1;
    while t_count <= cores {
        let inst = sim.instance.clone();
        let (res, elapsed) = with_threads(t_count, move || csr_improve(&inst, false).score);
        println!(
            "{:>7}  {:>8.1}  {res}",
            t_count,
            elapsed.as_secs_f64() * 1e3
        );
        scores.push(res);
        t_count *= 2;
    }
    assert!(
        scores.windows(2).all(|w| w[0] == w[1]),
        "improvement is deterministic across thread counts"
    );
}
