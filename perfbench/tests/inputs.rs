use fragalign_perfbench::inputs::{genome_inputs, serve_plan, shred_inputs, PlanShape};
use fragalign_perfbench::serve::{RATE, REPEAT_AFTER_S, REPEAT_SHARE};

fn texts(inputs: &[fragalign_perfbench::inputs::Input]) -> Vec<&str> {
    inputs.iter().map(|i| i.text.as_str()).collect()
}

/// The shipped serve-mix plan of a 35 s run.
const SHAPE: PlanShape = PlanShape {
    rate: RATE,
    requests: 875,
    repeat_share: REPEAT_SHARE,
    repeat_after_s: REPEAT_AFTER_S,
};

#[test]
fn same_seed_gives_byte_identical_inputs() {
    assert_eq!(texts(&genome_inputs(11, 3)), texts(&genome_inputs(11, 3)));
    assert_eq!(texts(&shred_inputs(11, 6)), texts(&shred_inputs(11, 6)));
    let (a, b) = (serve_plan(11, SHAPE), serve_plan(11, SHAPE));
    assert_eq!(a.bodies, b.bodies);
    assert_eq!(a.slots, b.slots);
}

#[test]
fn different_seeds_give_different_inputs() {
    assert_ne!(texts(&genome_inputs(11, 3)), texts(&genome_inputs(12, 3)));
    assert_ne!(texts(&shred_inputs(11, 6)), texts(&shred_inputs(12, 6)));
    assert_ne!(serve_plan(11, SHAPE).bodies, serve_plan(12, SHAPE).bodies);
}

#[test]
fn shred_inputs_interleave_torn_and_soup() {
    let shapes: Vec<&str> = shred_inputs(1, 4).iter().map(|i| i.shape).collect();
    assert_eq!(shapes, ["torn48", "soup48", "torn48", "soup48"]);
}

#[test]
fn serve_plan_repeats_only_cached_bodies_at_about_the_set_share() {
    let plan = serve_plan(7, SHAPE);
    let mut first_at = vec![f64::NAN; plan.bodies.len()];
    let mut repeats = 0;
    for slot in &plan.slots {
        if first_at[slot.body].is_nan() {
            first_at[slot.body] = slot.at_s;
        } else {
            repeats += 1;
            assert!(slot.at_s - first_at[slot.body] >= SHAPE.repeat_after_s - 1e-9);
        }
    }
    let share = repeats as f64 / plan.slots.len() as f64;
    assert!((0.25..0.35).contains(&share), "repeat share {share}");
    // Fresh bodies are the two serve shapes.
    assert!(plan
        .inputs
        .iter()
        .all(|i| i.shape == "sim24" || i.shape == "torn40"));
}
