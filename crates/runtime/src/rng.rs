//! A small, deterministic pseudo-random number generator.
//!
//! Every experiment in the reproduction must be replayable from a single
//! seed, so rather than pulling a full RNG crate into every layer we use a
//! tiny SplitMix64/xorshift-style generator.  It is emphatically **not**
//! cryptographic; it is used for suffix uniquifiers, workload generation,
//! topology generation and tie-breaking.

/// Deterministic 64-bit PRNG (SplitMix64 core).
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Create a generator from a seed.  Two generators created from the same
    /// seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point by mixing in a constant.
        Rng64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.  `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be positive");
        // Multiplicative range reduction; bias is negligible for our bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi > lo);
        lo + self.next_below(hi - lo)
    }

    /// Uniform `usize` index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Uniform floating point value in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.is_empty() {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }
}

/// A Zipf distribution over ranks `1..=n` with exponent `theta`; rank 1 is
/// the most popular element.
///
/// Used by the workload generators (file-sharing keyword popularity and
/// firewall-log source addresses), where heavy-tailed popularity is the
/// property the paper's figures rely on.  The cumulative weights are
/// precomputed once so sampling is a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution over `n ≥ 1` ranks with exponent `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "Zipf requires at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(theta);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `[1, n]` using the supplied generator.
    pub fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.f64();
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }
}

#[cfg(test)]
impl Zipf {
    /// Probability mass of a rank (1-based), for assertions in tests.
    pub fn pmf(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.cdf.len());
        if rank == 1 {
            self.cdf[0]
        } else {
            self.cdf[rank - 1] - self.cdf[rank - 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(9);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_in_bounds_and_skewed() {
        let mut r = Rng64::new(11);
        let n = 1000;
        let zipf = Zipf::new(n, 1.0);
        let mut rank1 = 0usize;
        let mut total = 0usize;
        for _ in 0..20_000 {
            let k = zipf.sample(&mut r);
            assert!((1..=n).contains(&k));
            total += 1;
            if k == 1 {
                rank1 += 1;
            }
        }
        // Rank 1 of a Zipf(1.0) over 1000 items captures ~13% of the mass,
        // far more than the uniform share (0.1%).
        let observed = rank1 as f64 / total as f64;
        assert!(observed > 0.08, "rank-1 share {observed}");
        assert!((zipf.pmf(1) - observed).abs() < 0.03);
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let zipf = Zipf::new(50, 1.2);
        let total: f64 = (1..=50).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..50 {
            assert!(zipf.pmf(k) >= zipf.pmf(k + 1));
        }
        assert_eq!(zipf.len(), 50);
    }
}
