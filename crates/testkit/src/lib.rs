//! # moca-testkit — a dependency-free property-testing harness
//!
//! A miniature stand-in for `proptest`, built so the workspace's
//! property suites run with **zero registry dependencies** (the build
//! environment is offline; see `DESIGN.md`, "offline build policy").
//!
//! The model is deliberately simple:
//!
//! * every test case is generated from a seeded [`TestRng`] (xorshift64*),
//!   so a failing case is reproducible from the printed seed;
//! * the case count is configurable per check and can be scaled globally
//!   with the `MOCA_TESTKIT_CASES` environment variable;
//! * on failure the harness optionally *shrinks* the input through a
//!   caller-provided candidate function and reports the smallest input
//!   that still fails;
//! * redundant implementations of the same computation can be
//!   cross-checked byte-for-byte through the [`differential`] harness
//!   (used by the sweep engine's scalar ≡ lock-step suites).
//!
//! ```
//! use moca_testkit::{check, Config, require};
//!
//! check(Config::cases(64), |rng| rng.range_u64(0, 1000), |&n| {
//!     require!(n < 1000, "generated value out of range: {n}");
//!     Ok(())
//! });
//! ```

use std::fmt::Debug;

pub mod differential;

pub use differential::{assert_engines_agree, diff_runs, engines_agree, EngineRun};

/// A xorshift64* pseudo-random generator for test-case synthesis.
///
/// Small, fast, and fully deterministic from its seed. Not suitable for
/// cryptography; entirely suitable for generating test inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed (a zero seed is remapped; the
    /// xorshift state must be non-zero).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) has no valid output");
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % bound
    }

    /// Uniform value in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniformly random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Picks one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Generates a vector whose length is uniform in `[min_len, max_len)`
    /// with elements drawn from `gen`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut TestRng) -> T,
    ) -> Vec<T> {
        let len = self.range_usize(min_len, max_len);
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Configuration of one property check.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases.
    pub cases: usize,
    /// Base seed; case `i` derives its generator from `seed` and `i`.
    pub seed: u64,
    /// Maximum number of accepted shrink steps before reporting.
    pub max_shrink_steps: usize,
}

impl Config {
    /// `cases` generated cases with the default seed.
    ///
    /// The environment variable `MOCA_TESTKIT_CASES`, when set, overrides
    /// the case count globally (useful for longer soak runs).
    pub fn cases(cases: usize) -> Self {
        let cases = std::env::var("MOCA_TESTKIT_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cases);
        Self {
            cases,
            seed: 0x_7E57_C0DE_2015_0001,
            max_shrink_steps: 256,
        }
    }

    /// Same configuration with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Derives the per-case generator: mixes the base seed with the case
/// index through a splitmix-style finalizer so consecutive cases are
/// decorrelated.
fn case_rng(seed: u64, case: usize) -> TestRng {
    let mut z = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    TestRng::new(z ^ (z >> 31))
}

/// Runs `prop` against `cfg.cases` inputs drawn from `gen`, without
/// shrinking.
///
/// # Panics
///
/// Panics (failing the enclosing test) on the first input for which
/// `prop` returns `Err`, reporting the case index, the reproduction
/// seed, and the failing input's `Debug` rendering.
pub fn check<T, G, P>(cfg: Config, gen: G, prop: P)
where
    T: Debug,
    G: Fn(&mut TestRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    check_shrink(cfg, gen, |_| Vec::new(), prop);
}

/// Runs `prop` against generated inputs and, on failure, greedily
/// shrinks through `shrink` candidates while the property keeps failing.
///
/// `shrink(&input)` returns candidate *smaller* inputs to try, in
/// preference order. Shrinking stops when no candidate fails or the step
/// budget is exhausted.
///
/// # Panics
///
/// Panics with a report of the (shrunk) failing input when the property
/// does not hold.
pub fn check_shrink<T, G, S, P>(cfg: Config, gen: G, shrink: S, prop: P)
where
    T: Debug,
    G: Fn(&mut TestRng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    for case in 0..cfg.cases {
        let mut rng = case_rng(cfg.seed, case);
        let input = gen(&mut rng);
        if let Err(first_msg) = prop(&input) {
            let (min_input, min_msg, steps) =
                shrink_failure(input, first_msg, &shrink, &prop, cfg.max_shrink_steps);
            panic!(
                "property failed at case {case}/{} (seed {:#x})\n\
                 error: {min_msg}\n\
                 input ({steps} shrink steps): {min_input:?}",
                cfg.cases, cfg.seed
            );
        }
    }
}

/// Greedy shrink loop: repeatedly replace the failing input with the
/// first shrink candidate that still fails.
fn shrink_failure<T, S, P>(
    mut input: T,
    mut msg: String,
    shrink: &S,
    prop: &P,
    budget: usize,
) -> (T, String, usize)
where
    T: Debug,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> Result<(), String>,
{
    let mut steps = 0;
    'outer: while steps < budget {
        for candidate in shrink(&input) {
            if let Err(e) = prop(&candidate) {
                input = candidate;
                msg = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (input, msg, steps)
}

/// Shrink candidates for a vector input: drop the second half, the first
/// half, and (for short vectors) each single element.
///
/// Useful as the `shrink` argument of [`check_shrink`] when the input is
/// an operation sequence.
pub fn shrink_vec<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    if v.len() > 1 {
        out.push(v[..v.len() / 2].to_vec());
        out.push(v[v.len() / 2..].to_vec());
    }
    if v.len() > 1 && v.len() <= 32 {
        for i in 0..v.len() {
            let mut c = v.to_vec();
            c.remove(i);
            out.push(c);
        }
    }
    out
}

/// Fails the enclosing property (returns `Err` from the property
/// closure) when the condition is false.
///
/// Inside a [`check`]/[`check_shrink`] property closure this plays the
/// role of `prop_assert!`.
#[macro_export]
macro_rules! require {
    ($cond:expr) => {
        if !($cond) {
            return Err(format!("requirement failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !($cond) {
            return Err(format!("requirement failed: {}: {}", stringify!($cond), format!($($arg)+)));
        }
    };
}

/// Property-level equality assertion (`prop_assert_eq!` analogue).
#[macro_export]
macro_rules! require_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!(
                "requirement failed: {} == {} (left: {lhs:?}, right: {rhs:?})",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($arg:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs != rhs {
            return Err(format!(
                "requirement failed: {} == {} (left: {lhs:?}, right: {rhs:?}): {}",
                stringify!($a),
                stringify!($b),
                format!($($arg)+)
            ));
        }
    }};
}

/// Property-level inequality assertion (`prop_assert_ne!` analogue).
#[macro_export]
macro_rules! require_ne {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if lhs == rhs {
            return Err(format!(
                "requirement failed: {} != {} (both: {lhs:?})",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

/// A deterministic fault-injection plan for tolerance tests.
///
/// Decides, purely from `(seed, index)`, whether the work item at a
/// given index should fault. Because the decision is **stateless** —
/// no RNG stream is consumed — the same plan yields the same fault set
/// no matter how items are sharded across worker threads or in what
/// order they execute, which is exactly the property a deterministic
/// panic-isolation contract needs to be testable under `--jobs N`.
///
/// ```
/// use moca_testkit::FaultPlan;
///
/// let plan = FaultPlan::new(42).with_rate(1, 4); // ~25% of indices
/// let a: Vec<usize> = plan.faulty_indices(100);
/// let b: Vec<usize> = plan.faulty_indices(100);
/// assert_eq!(a, b); // fully deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// Fault when `mix(seed, index) % denom < num`.
    num: u64,
    denom: u64,
}

impl FaultPlan {
    /// A plan that faults roughly 1 in 8 indices (adjust with
    /// [`FaultPlan::with_rate`]).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            num: 1,
            denom: 8,
        }
    }

    /// Sets the fault rate to `num / denom` (e.g. `with_rate(1, 3)`
    /// faults about a third of all indices).
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero or `num > denom`.
    pub fn with_rate(mut self, num: u64, denom: u64) -> Self {
        assert!(
            denom > 0 && num <= denom,
            "rate {num}/{denom} is not a probability"
        );
        self.num = num;
        self.denom = denom;
        self
    }

    /// Whether the item at `index` should fault — a pure function of
    /// `(seed, index)`, independent of evaluation order.
    pub fn should_fault(&self, index: usize) -> bool {
        // splitmix64-style finalizer over seed ^ index.
        let mut z = self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.denom < self.num
    }

    /// The indices in `[0, n)` that fault under this plan.
    pub fn faulty_indices(&self, n: usize) -> Vec<usize> {
        (0..n).filter(|&i| self.should_fault(i)).collect()
    }

    /// Panics with a deterministic, index-tagged message when `index`
    /// is in the plan's fault set; otherwise does nothing.
    ///
    /// The message depends only on the index, so a fault-isolation
    /// layer that captures panic payloads can be checked for exact,
    /// reproducible error text.
    pub fn trip(&self, index: usize) {
        if self.should_fault(index) {
            panic!("injected fault at index {index}");
        }
    }
}

/// An [`std::io::Write`] sink that accepts only `limit` bytes, then reports
/// end-of-space by returning `Ok(0)` — which `write_all` (and thus
/// `write!`/`writeln!`) converts into [`WriteZero`].
///
/// Simulates a full disk or a closed pipe for exercising I/O error
/// paths without touching the filesystem.
///
/// [`WriteZero`]: std::io::ErrorKind::WriteZero
///
/// ```
/// use std::io::Write;
///
/// let mut w = moca_testkit::ShortWriter::new(4);
/// let err = w.write_all(b"too long for four bytes").unwrap_err();
/// assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
/// assert_eq!(w.written(), b"too ");
/// ```
#[derive(Debug, Default)]
pub struct ShortWriter {
    remaining: usize,
    accepted: Vec<u8>,
}

impl ShortWriter {
    /// A writer with capacity for exactly `limit` bytes.
    pub fn new(limit: usize) -> Self {
        Self {
            remaining: limit,
            accepted: Vec::with_capacity(limit),
        }
    }

    /// The bytes accepted before the writer ran out of space.
    pub fn written(&self) -> &[u8] {
        &self.accepted
    }
}

impl std::io::Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.remaining);
        self.accepted.extend_from_slice(&buf[..n]);
        self.remaining -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A *seekable* sink that runs out of space after `limit` bytes —
/// [`ShortWriter`]'s sibling for writers that back-patch (headers,
/// trailing directories) and therefore need `Write + Seek`.
///
/// Seeks always succeed; any write that would push the end of the
/// buffer past `limit` is truncated at the limit (then `Ok(0)`, which
/// `write_all` turns into `WriteZero`). Deterministic: the failure
/// point depends only on `limit` and the byte stream.
///
/// # Examples
///
/// ```
/// use std::io::Write;
///
/// let mut w = moca_testkit::ShortSeekWriter::new(4);
/// let err = w.write_all(b"too long for four bytes").unwrap_err();
/// assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
/// assert_eq!(w.written(), b"too ");
/// ```
#[derive(Debug, Default)]
pub struct ShortSeekWriter {
    limit: u64,
    cursor: std::io::Cursor<Vec<u8>>,
}

impl ShortSeekWriter {
    /// A seekable writer with capacity for exactly `limit` bytes.
    pub fn new(limit: usize) -> Self {
        Self {
            limit: limit as u64,
            cursor: std::io::Cursor::new(Vec::new()),
        }
    }

    /// The bytes accepted before the writer ran out of space.
    pub fn written(&self) -> &[u8] {
        self.cursor.get_ref()
    }
}

impl std::io::Write for ShortSeekWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let pos = self.cursor.position();
        let room = self.limit.saturating_sub(pos).min(buf.len() as u64) as usize;
        self.cursor.write(&buf[..room])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.cursor.flush()
    }
}

impl std::io::Seek for ShortSeekWriter {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        self.cursor.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let f = rng.f64_unit();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn vec_length_respects_range() {
        let mut rng = TestRng::new(9);
        for _ in 0..100 {
            let v = rng.vec(2, 10, |r| r.next_u64());
            assert!(v.len() >= 2 && v.len() < 10);
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let counted = std::cell::Cell::new(0usize);
        check(
            Config::cases(25),
            |rng| rng.next_u64(),
            |_| {
                counted.set(counted.get() + 1);
                Ok(())
            },
        );
        assert_eq!(counted.get(), 25);
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics_with_report() {
        check(
            Config::cases(50),
            |rng| rng.range_u64(0, 100),
            |&n| {
                require!(n < 101, "unreachable");
                if n >= 10 {
                    return Err("too big".into());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn shrinking_minimizes_vec_input() {
        // Property fails whenever the vec contains a value >= 1000; the
        // shrunk counterexample must be a single-element vector.
        let gen = |rng: &mut TestRng| rng.vec(1, 40, |r| r.range_u64(0, 2000));
        let prop = |v: &Vec<u64>| {
            if v.iter().any(|&x| x >= 1000) {
                Err("contains big".into())
            } else {
                Ok(())
            }
        };
        // Find a failing input first so the test is deterministic.
        let mut failing = None;
        for case in 0..200 {
            let v = gen(&mut case_rng(1, case));
            if prop(&v).is_err() {
                failing = Some(v);
                break;
            }
        }
        let failing = failing.expect("a failing input exists");
        let (min, _msg, _steps) = shrink_failure(
            failing,
            "seed".into(),
            &|v: &Vec<u64>| shrink_vec(v),
            &prop,
            256,
        );
        assert_eq!(
            min.len(),
            1,
            "shrunk to a single offending element: {min:?}"
        );
        assert!(min[0] >= 1000);
    }

    #[test]
    fn case_count_env_override_parses() {
        // Do not mutate the environment (tests run in parallel); just
        // exercise the default path.
        let cfg = Config::cases(12);
        assert!(cfg.cases >= 1);
    }

    #[test]
    fn fault_plan_is_order_independent() {
        let plan = FaultPlan::new(0xF00D).with_rate(1, 3);
        let forward: Vec<bool> = (0..200).map(|i| plan.should_fault(i)).collect();
        let mut backward: Vec<bool> = (0..200).rev().map(|i| plan.should_fault(i)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(plan.faulty_indices(200), plan.faulty_indices(200));
    }

    #[test]
    fn fault_plan_rate_is_roughly_respected() {
        let hits = FaultPlan::new(7).with_rate(1, 4).faulty_indices(4000).len();
        // 1/4 of 4000 = 1000; allow generous slack, determinism is the point.
        assert!((700..1300).contains(&hits), "unexpected fault count {hits}");
        assert!(FaultPlan::new(7)
            .with_rate(0, 1)
            .faulty_indices(100)
            .is_empty());
        assert_eq!(
            FaultPlan::new(7).with_rate(1, 1).faulty_indices(100).len(),
            100
        );
    }

    #[test]
    #[should_panic(expected = "injected fault at index")]
    fn trip_panics_on_planned_index() {
        let plan = FaultPlan::new(3).with_rate(1, 1);
        plan.trip(5);
    }

    #[test]
    fn short_writer_truncates_then_reports_write_zero() {
        use std::io::Write;
        let mut w = ShortWriter::new(10);
        w.write_all(b"0123456789").expect("fits exactly");
        let err = w.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!(w.written(), b"0123456789");
        w.flush().expect("flush is infallible");
    }

    #[test]
    fn require_macros_produce_errors() {
        let f = |x: u64| -> Result<(), String> {
            require!(x != 1);
            require_eq!(x % 2, 0, "x = {x}");
            require_ne!(x, 6);
            Ok(())
        };
        assert!(f(0).is_ok());
        assert!(f(1).unwrap_err().contains("requirement failed"));
        assert!(f(3).unwrap_err().contains("left"));
        assert!(f(6).unwrap_err().contains("!="));
    }
}
