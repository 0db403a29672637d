//! Seeded input generation. Everything the program sees — instance
//! JSON documents and request bodies — derives from `--seed` through
//! [`Rng`] streams, so one seed always yields byte-identical inputs.

use crate::stats::Rng;
use fragalign::model::Instance;
use fragalign::sim::{generate, generate_soup, generate_torn, SimConfig, SoupConfig, TornConfig};

/// RNG stream ids: one per independent random choice.
pub mod stream {
    /// Instance seeds of the batch workloads.
    pub const INSTANCES: u64 = 1;
    /// Op order of a timed phase.
    pub const ORDER: u64 = 2;
    /// The serve-mix request plan.
    pub const PLAN: u64 = 3;
}

/// One generated instance and its JSON text (what the program reads).
#[derive(Clone, Debug)]
pub struct Input {
    /// Instance as JSON.
    pub text: String,
    /// Shape label, e.g. `sim120` or `torn48`.
    pub shape: &'static str,
}

fn input(inst: &Instance, shape: &'static str) -> Input {
    Input {
        text: serde_json::to_string(inst).expect("instances serialise"),
        shape,
    }
}

/// A 120-region, 8×8-fragment simulated genome pair.
pub fn sim120(seed: u64) -> Instance {
    generate(&SimConfig {
        regions: 120,
        h_frags: 8,
        m_frags: 8,
        seed,
        ..SimConfig::default()
    })
    .instance
}

/// A 24-region simulated pair (the simulator's default shape).
pub fn sim24(seed: u64) -> Instance {
    generate(&SimConfig {
        regions: 24,
        seed,
        ..SimConfig::default()
    })
    .instance
}

/// A torn-paper instance over `regions` conserved regions.
pub fn torn(regions: usize, seed: u64) -> Instance {
    generate_torn(&TornConfig {
        regions,
        seed,
        ..TornConfig::default()
    })
    .instance
}

/// A read-soup instance over `regions` conserved regions.
pub fn soup(regions: usize, seed: u64) -> Instance {
    generate_soup(&SoupConfig {
        regions,
        seed,
        ..SoupConfig::default()
    })
    .instance
}

/// genome-solve: `count` 120-region sims.
pub fn genome_inputs(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, stream::INSTANCES);
    (0..count)
        .map(|_| input(&sim120(rng.next_u64()), "sim120"))
        .collect()
}

/// shred-batch: `count` 48-region instances, torn-paper and read-soup
/// interleaved.
pub fn shred_inputs(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, stream::INSTANCES);
    (0..count)
        .map(|i| {
            let s = rng.next_u64();
            if i % 2 == 0 {
                input(&torn(48, s), "torn48")
            } else {
                input(&soup(48, s), "soup48")
            }
        })
        .collect()
}

/// Decode every input's instance, one JSON text at a time (the
/// program's decoder slows with document length, so the workload is
/// never handed over as one document).
pub fn decode_all(inputs: &[Input]) -> Vec<Instance> {
    inputs
        .iter()
        .map(|inp| serde_json::from_str(&inp.text).expect("generated instances decode"))
        .collect()
}

/// One scheduled request of the serve-mix open loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slot {
    /// Send time, seconds after the phase starts.
    pub at_s: f64,
    /// Index into [`ServePlan::bodies`].
    pub body: usize,
}

/// The serve-mix traffic: distinct request bodies plus the schedule
/// that sends them. A body's first slot is its miss; later slots
/// repeat it byte for byte.
#[derive(Clone, Debug)]
pub struct ServePlan {
    /// Distinct request bodies, in first-send order.
    pub bodies: Vec<String>,
    /// The instance inside each body (JSON) and its shape.
    pub inputs: Vec<Input>,
    /// Every request, in send order.
    pub slots: Vec<Slot>,
}

/// Knobs of the serve-mix plan.
#[derive(Clone, Copy, Debug)]
pub struct PlanShape {
    /// Requests per second.
    pub rate: f64,
    /// Total requests.
    pub requests: usize,
    /// Probability that a slot repeats an earlier body.
    pub repeat_share: f64,
    /// A body becomes repeatable this long after its first send, so
    /// its miss has been answered and cached by then.
    pub repeat_after_s: f64,
}

/// Build the serve-mix plan: fresh bodies are 24-region sims and
/// 40-region torn instances in equal odds; a repeat picks uniformly
/// among the bodies old enough to be cached.
pub fn serve_plan(seed: u64, shape: PlanShape) -> ServePlan {
    let mut rng = Rng::new(seed, stream::PLAN);
    let mut plan = ServePlan {
        bodies: Vec::new(),
        inputs: Vec::new(),
        slots: Vec::with_capacity(shape.requests),
    };
    let mut first_at: Vec<f64> = Vec::new();
    let mut repeatable = 0usize;
    for i in 0..shape.requests {
        let at_s = i as f64 / shape.rate;
        while repeatable < first_at.len() && first_at[repeatable] + shape.repeat_after_s <= at_s {
            repeatable += 1;
        }
        let repeat = rng.unit() < shape.repeat_share;
        let body = if repeat && repeatable > 0 {
            rng.below(repeatable)
        } else {
            let s = rng.next_u64();
            let inp = if rng.below(2) == 0 {
                input(&sim24(s), "sim24")
            } else {
                input(&torn(40, s), "torn40")
            };
            plan.bodies.push(format!("{{\"instance\":{}}}", inp.text));
            plan.inputs.push(inp);
            first_at.push(at_s);
            plan.bodies.len() - 1
        };
        plan.slots.push(Slot { at_s, body });
    }
    plan
}
