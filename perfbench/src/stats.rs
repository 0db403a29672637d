//! Order statistics, the tail-percentile rule, and the seeded RNG the
//! input generators and op shufflers share.

/// The `q`-quantile of `samples` by the nearest-rank rule: the
/// smallest value with at least `q · n` samples at or below it.
/// `q` is clamped to `[0, 1]`; an empty slice yields `None`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// The median (nearest-rank, lower middle on even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Zero-based index of the nearest-rank `q`-quantile among `n` sorted
/// samples (`n > 0`).
fn rank(n: usize, q: f64) -> usize {
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n`
/// samples: the count the tail rule requires to be at least
/// [`MIN_TAIL_SAMPLES`].
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// A reported tail percentile must have at least this many samples
/// beyond it, or it is an estimate of one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Smallest sample count at which the `q`-quantile has
/// [`MIN_TAIL_SAMPLES`] samples beyond it. A workload keeps running
/// past its time budget until it has this many ops.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
        .expect("a finite count exists for any q < 1")
}

/// A percentile as the label the report prints, e.g. `0.99` → `p99`
/// and `0.995` → `p99.5`.
pub fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct}")
    }
}

/// SplitMix64: a tiny, well-mixed, seedable generator. Every input and
/// every op order derives from it, so one `--seed` fixes all of them.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (distinct streams of
    /// one seed are independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless op order over `0..n`: each pass visits every index once
/// in a fresh seeded shuffle, so no index repeats before all have run
/// and a slow host phase lands on every class alike.
pub struct ShuffledCycle {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl ShuffledCycle {
    /// A cycle over `0..n` (`n > 0`) driven by `rng`.
    pub fn new(n: usize, rng: Rng) -> Self {
        assert!(n > 0, "an op order needs at least one input");
        ShuffledCycle {
            rng,
            order: (0..n).collect(),
            pos: n,
        }
    }
}

impl Iterator for ShuffledCycle {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.order[self.pos - 1])
    }
}
