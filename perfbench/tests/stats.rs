use fragalign_perfbench::stats::{
    median, min_samples_for_tail, percentile, percentile_label, samples_beyond, Rng, ShuffledCycle,
    MIN_TAIL_SAMPLES,
};

#[test]
fn nearest_rank_percentiles_on_known_samples() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.5), Some(5.0));
    assert_eq!(percentile(&xs, 0.9), Some(9.0));
    assert_eq!(percentile(&xs, 0.91), Some(10.0));
    assert_eq!(percentile(&xs, 1.0), Some(10.0));
    assert_eq!(percentile(&xs, 0.0), Some(1.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    // Order of the input does not matter.
    let mut rev = xs.clone();
    rev.reverse();
    assert_eq!(percentile(&rev, 0.9), Some(9.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn tail_rule_counts_samples_beyond_the_percentile() {
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(0, 0.99), 0);
    assert_eq!(min_samples_for_tail(0.9), 100);
    assert_eq!(min_samples_for_tail(0.99), 1000);
    assert_eq!(min_samples_for_tail(0.5), 20);
    for q in [0.5, 0.8, 0.9, 0.95, 0.99] {
        let n = min_samples_for_tail(q);
        assert!(samples_beyond(n, q) >= MIN_TAIL_SAMPLES, "q={q}");
        assert!(samples_beyond(n - 1, q) < MIN_TAIL_SAMPLES, "q={q}");
    }
}

#[test]
fn percentile_labels() {
    assert_eq!(percentile_label(0.99), "p99");
    assert_eq!(percentile_label(0.9), "p90");
    assert_eq!(percentile_label(0.995), "p99.5");
}

#[test]
fn shuffled_cycle_visits_every_index_once_per_pass() {
    let mut cycle = ShuffledCycle::new(7, Rng::new(3, 0));
    for _ in 0..3 {
        let mut pass: Vec<usize> = cycle.by_ref().take(7).collect();
        pass.sort_unstable();
        assert_eq!(pass, (0..7).collect::<Vec<_>>());
    }
}

#[test]
fn rng_streams_are_seeded_and_distinct() {
    let a: Vec<u64> = (0..4)
        .map({
            let mut r = Rng::new(5, 1);
            move |_| r.next_u64()
        })
        .collect();
    let b: Vec<u64> = (0..4)
        .map({
            let mut r = Rng::new(5, 1);
            move |_| r.next_u64()
        })
        .collect();
    let c: Vec<u64> = (0..4)
        .map({
            let mut r = Rng::new(5, 2);
            move |_| r.next_u64()
        })
        .collect();
    let d: Vec<u64> = (0..4)
        .map({
            let mut r = Rng::new(6, 1);
            move |_| r.next_u64()
        })
        .collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_ne!(a, d);
}
