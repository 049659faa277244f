//! Seeded input generators. The benchmark owns its samplers (MRPC-like
//! lengths, SST-like leaf counts, Zipf row counts, exponential arrival
//! gaps) so later edits to `nimble_bench::workload` cannot move the
//! baseline; `--seed` is their only input.

use nimble_models::data::TreeNode;
use nimble_tensor::Tensor;

/// splitmix64: small, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other `stream` numbers of
    /// the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A `shape`-shaped f32 tensor uniform in `[-1, 1)`.
    pub fn tensor(&mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| (self.unit() * 2.0 - 1.0) as f32).collect();
        Tensor::from_vec_f32(data, shape).expect("shape matches data")
    }
}

/// `n` quantile points of a sum of `terms` uniforms on `[0, 13)`, clamped
/// to `[lo, hi]`, in seed-chosen order.
///
/// The lengths are a stratified sample (the same multiset for every seed)
/// and the seed only permutes them: a metric such as `latency_p50_ms` then
/// compares across seeds, instead of following the luck of 64 draws.
fn stratified_lengths(n: usize, terms: usize, lo: usize, hi: usize, rng: &mut Rng) -> Vec<usize> {
    const POOL: usize = 4096;
    let mut pool_rng = Rng::new(0x5EED_1E57, terms as u64);
    let mut pool: Vec<usize> = (0..POOL)
        .map(|_| {
            let s: f64 = (0..terms).map(|_| pool_rng.unit() * 13.0).sum();
            (s as usize).clamp(lo, hi)
        })
        .collect();
    pool.sort_unstable();
    let mut lengths: Vec<usize> = (0..n).map(|i| pool[(2 * i + 1) * POOL / (2 * n)]).collect();
    rng.shuffle(&mut lengths);
    lengths
}

/// MRPC-like sentence lengths: roughly normal around 26 tokens, in `[5, 64]`.
pub fn mrpc_lengths(n: usize, rng: &mut Rng) -> Vec<usize> {
    stratified_lengths(n, 4, 5, 64, rng)
}

/// SST-like tree sizes (leaf counts), skewed short, in `[2, 50]`.
pub fn sst_leaf_counts(n: usize, rng: &mut Rng) -> Vec<usize> {
    stratified_lengths(n, 3, 2, 50, rng)
}

/// A random binary parse with `leaves` leaves of `[1, width]` embeddings.
pub fn random_tree(rng: &mut Rng, leaves: usize, width: usize) -> TreeNode {
    if leaves == 1 {
        return TreeNode::Leaf(rng.tensor(&[1, width]));
    }
    let left = 1 + rng.below(leaves - 1);
    let l = random_tree(rng, left, width);
    let r = random_tree(rng, leaves - left, width);
    TreeNode::Node(Box::new(l), Box::new(r))
}

/// Row counts of the open-loop workload, hottest first: rank `r` has
/// weight `1 / r^1.2`.
pub const ZIPF_ROWS: [usize; 8] = [1, 16, 4, 8, 2, 6, 12, 24];

/// `n` row counts in Zipf(1.2) proportions over [`ZIPF_ROWS`], in
/// seed-chosen order. Like the lengths above, the proportions are exact
/// (largest remainders) and the seed only permutes.
pub fn zipf_rows(n: usize, rng: &mut Rng) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ZIPF_ROWS.len())
        .map(|r| 1.0 / (r as f64).powf(1.2))
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..exact.len()).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut rows: Vec<usize> = ZIPF_ROWS
        .iter()
        .zip(&counts)
        .flat_map(|(&r, &c)| std::iter::repeat_n(r, c))
        .collect();
    rng.shuffle(&mut rows);
    rows
}

/// Due times in nanoseconds from the start of a step: Poisson arrivals at
/// `rate` per second for `seconds` seconds.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_share_a_multiset_and_seed_permutes_them() {
        let a = mrpc_lengths(64, &mut Rng::new(1, 0));
        let b = mrpc_lengths(64, &mut Rng::new(2, 0));
        assert_eq!(a, mrpc_lengths(64, &mut Rng::new(1, 0)));
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert!(a.iter().all(|l| (5..=64).contains(l)));
        let mean = a.iter().sum::<usize>() as f64 / 64.0;
        assert!((22.0..30.0).contains(&mean), "mean {mean}");
        assert!(sst_leaf_counts(64, &mut Rng::new(1, 0))
            .iter()
            .all(|l| (2..=50).contains(l)));
    }

    #[test]
    fn schedule_is_deterministic_and_near_its_rate() {
        let a = poisson_schedule(1000.0, 2.0, &mut Rng::new(7, 3));
        assert_eq!(a, poisson_schedule(1000.0, 2.0, &mut Rng::new(7, 3)));
        assert_ne!(a, poisson_schedule(1000.0, 2.0, &mut Rng::new(8, 3)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn zipf_is_head_heavy_and_trees_have_their_leaves() {
        let mut rng = Rng::new(3, 0);
        let rows = zipf_rows(64, &mut rng);
        assert_eq!(rows.len(), 64);
        let count = |r: usize| rows.iter().filter(|&&x| x == r).count();
        assert!(count(1) > count(16) && count(16) > count(24), "{rows:?}");
        assert!(count(1) >= 20 && count(24) >= 1, "{rows:?}");
        let mut other = zipf_rows(64, &mut Rng::new(4, 0));
        assert_ne!(rows, other);
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        other.sort_unstable();
        assert_eq!(sorted, other);
        for leaves in [1, 2, 17] {
            assert_eq!(random_tree(&mut rng, leaves, 4).num_leaves(), leaves);
        }
    }
}
