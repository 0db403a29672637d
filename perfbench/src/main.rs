//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end set, measured with
//! tracing off; with `--trace 1` they are the per-layer set. Exits 1
//! if any output check failed, 2 on a usage error.

use fragalign_perfbench::report::{print_table, result_line, GATED_END_TO_END};
use fragalign_perfbench::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <genome-solve|shred-batch|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {name}: seed {} seconds {} trace {} (host parallelism {cores})",
        args.seed, args.seconds, args.trace as u8
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        let traced = match args.workload.run_traced(args.seed, args.seconds) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{name}: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (metrics, unexercised) = traced.layers.finish();
        print_table(&format!("{name} per-layer metrics"), &metrics);
        if !unexercised.is_empty() {
            println!(
                "  (0 = not exercised by {name}: {})",
                unexercised.join(", ")
            );
        }
        for p in &traced.problems {
            println!("CHECK FAILED: {p}");
        }
        (
            traced.problems.is_empty(),
            traced.attempted,
            traced.failed,
            metrics,
        )
    } else {
        let e2e = match args.workload.run(args.seed, args.seconds) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let all = e2e.metrics();
        print_table(&format!("{name} end-to-end metrics"), &all);
        println!("  latency_tail_ms is the {}", e2e.tail_note());
        for p in &e2e.problems {
            println!("CHECK FAILED: {p}");
        }
        let gated = all
            .into_iter()
            .filter(|m| GATED_END_TO_END.contains(&m.name.as_str()))
            .collect();
        let correct = e2e.problems.is_empty() && e2e.failed() == 0;
        (correct, e2e.attempted(), e2e.failed(), gated)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("CHECK FAILED: a metric is not a finite number");
    }
    println!(
        "{}",
        result_line(correct && finite, attempted, failed, &metrics)
    );
    if correct && finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
