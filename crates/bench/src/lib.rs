//! Offline benchmark harness for the `moca-bench` targets.
//!
//! The `micro` target times the substrates (trace generation, the cache
//! access path, L1 filtering, the sweep executor, the filtered-run memo,
//! MRC profiling, search) with the dependency-free [`Runner`] below —
//! warmup iterations followed by `N` timed iterations per benchmark,
//! reported as median/min wall time with a machine-readable JSON line —
//! so `cargo bench` works with zero registry access. [`regression`]
//! compares such a run against a stored baseline (`bench_guard`).
//! End-to-end `repro` timing is the job of the reprobench ledger, not
//! of these benches.
//!
//! Flags (after `cargo bench -p moca-bench -- ...`):
//!
//! * `--smoke` — one iteration, no warmup (CI liveness check).
//! * `--iters N` — timed iterations per benchmark (default 5).
//! * `--warmup N` — warmup iterations per benchmark (default 1).
//!
//! Unknown flags (such as the `--bench` cargo appends) are ignored.

pub mod regression;

use std::hint::black_box;
use std::time::Instant;

use moca_trace::AppProfile;

/// The seed all bench iterations share (determinism keeps variance low).
pub const BENCH_SEED: u64 = 2015;

/// The app most benches use.
pub fn bench_app() -> AppProfile {
    AppProfile::browser()
}

/// Iteration counts for a bench run, parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Untimed warmup iterations before measuring.
    pub warmup: usize,
    /// Timed iterations (the median/min are taken over these).
    pub iters: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: 1,
            iters: 5,
        }
    }
}

impl BenchConfig {
    /// Parses `--smoke`, `--iters N`/`--iters=N` and `--warmup
    /// N`/`--warmup=N` from the process arguments. Unknown flags are
    /// ignored (cargo passes `--bench` through).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args)
    }

    /// [`BenchConfig::from_args`] over an explicit argument list.
    pub fn parse(args: &[String]) -> Self {
        let mut cfg = BenchConfig::default();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            match a {
                "--smoke" => {
                    cfg.warmup = 0;
                    cfg.iters = 1;
                }
                "--iters" | "--warmup" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        if a == "--iters" {
                            cfg.iters = v;
                        } else {
                            cfg.warmup = v;
                        }
                        i += 1;
                    }
                }
                _ => {
                    if let Some(v) = a.strip_prefix("--iters=").and_then(|s| s.parse().ok()) {
                        cfg.iters = v;
                    } else if let Some(v) = a.strip_prefix("--warmup=").and_then(|s| s.parse().ok())
                    {
                        cfg.warmup = v;
                    }
                    // Anything else: tolerated and ignored.
                }
            }
            i += 1;
        }
        cfg.iters = cfg.iters.max(1);
        cfg
    }
}

/// One benchmark's measured timings (nanoseconds per iteration).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/name` of the benchmark.
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Sorted per-iteration wall times in nanoseconds.
    pub samples_ns: Vec<u64>,
    /// Optional elements-per-iteration for throughput reporting.
    pub throughput_elems: Option<u64>,
}

impl Measurement {
    /// Fastest iteration in nanoseconds.
    pub fn min_ns(&self) -> u64 {
        self.samples_ns[0]
    }

    /// Median iteration in nanoseconds (lower middle for even counts).
    pub fn median_ns(&self) -> u64 {
        self.samples_ns[(self.samples_ns.len() - 1) / 2]
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A named group of benchmarks sharing one [`BenchConfig`].
///
/// Construct with [`Runner::new`] at the top of a bench target's `main`,
/// call [`Runner::bench`] per benchmark, and finish with
/// [`Runner::finish`] (prints the footer). Every benchmark prints a
/// human line and a JSON line:
///
/// ```text
/// micro/cache-access/lru: median 41.20 ms, min 40.97 ms (5 iters)
/// {"group":"micro","bench":"cache-access/lru","iters":5,"median_ns":41204512,"min_ns":40972011}
/// ```
pub struct Runner {
    group: String,
    config: BenchConfig,
    /// Elements per iteration for the *next* benchmark (reset after use).
    pending_throughput: Option<u64>,
    ran: usize,
}

impl Runner {
    /// Creates a runner for `group`, reading flags from the process
    /// arguments.
    pub fn new(group: &str) -> Self {
        Self::with_config(group, BenchConfig::from_args())
    }

    /// Creates a runner with an explicit config (used by tests).
    pub fn with_config(group: &str, config: BenchConfig) -> Self {
        Runner {
            group: group.to_string(),
            config,
            pending_throughput: None,
            ran: 0,
        }
    }

    /// The active config.
    pub fn config(&self) -> BenchConfig {
        self.config
    }

    /// Declares that the next benchmark processes `elems` elements per
    /// iteration; its report then includes an elements/second figure.
    pub fn throughput_elems(&mut self, elems: u64) {
        self.pending_throughput = Some(elems);
    }

    /// Runs one benchmark: `warmup` untimed calls of `f`, then `iters`
    /// timed calls. Returns the measurement (also printed to stdout).
    pub fn bench<R, F>(&mut self, name: &str, mut f: F) -> Measurement
    where
        F: FnMut() -> R,
    {
        for _ in 0..self.config.warmup {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.config.iters);
        for _ in 0..self.config.iters {
            let start = Instant::now();
            black_box(f());
            samples.push(start.elapsed().as_nanos() as u64);
        }
        samples.sort_unstable();
        let m = Measurement {
            group: self.group.clone(),
            name: name.to_string(),
            samples_ns: samples,
            throughput_elems: self.pending_throughput.take(),
        };
        self.report(&m);
        self.ran += 1;
        m
    }

    fn report(&self, m: &Measurement) {
        let mut line = format!(
            "{}/{}: median {}, min {} ({} iters)",
            m.group,
            m.name,
            fmt_ns(m.median_ns()),
            fmt_ns(m.min_ns()),
            m.samples_ns.len()
        );
        if let Some(elems) = m.throughput_elems {
            let eps = elems as f64 / (m.median_ns().max(1) as f64 / 1e9);
            line.push_str(&format!(", {:.1} Melem/s", eps / 1e6));
        }
        println!("{line}");
        let tp = m
            .throughput_elems
            .map_or(String::from("null"), |e| e.to_string());
        println!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"iters\":{},\"median_ns\":{},\"min_ns\":{},\"throughput_elems\":{}}}",
            m.group,
            m.name,
            m.samples_ns.len(),
            m.median_ns(),
            m.min_ns(),
            tp
        );
    }

    /// Prints the group footer. Call at the end of the target's `main`.
    pub fn finish(self) {
        println!("{}: {} benchmark(s) done", self.group, self.ran);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn config_defaults() {
        assert_eq!(
            BenchConfig::parse(&[]),
            BenchConfig {
                warmup: 1,
                iters: 5
            }
        );
    }

    #[test]
    fn config_smoke_is_one_iteration() {
        let cfg = BenchConfig::parse(&strings(&["--bench", "--smoke"]));
        assert_eq!(
            cfg,
            BenchConfig {
                warmup: 0,
                iters: 1
            }
        );
    }

    #[test]
    fn config_explicit_counts_both_forms() {
        let cfg = BenchConfig::parse(&strings(&["--iters", "3", "--warmup=2"]));
        assert_eq!(
            cfg,
            BenchConfig {
                warmup: 2,
                iters: 3
            }
        );
        let cfg = BenchConfig::parse(&strings(&["--iters=7", "--warmup", "0"]));
        assert_eq!(
            cfg,
            BenchConfig {
                warmup: 0,
                iters: 7
            }
        );
    }

    #[test]
    fn config_ignores_unknown_flags_and_zero_iters() {
        let cfg = BenchConfig::parse(&strings(&["--bench", "--iters", "0", "--whatever"]));
        assert_eq!(cfg.iters, 1, "iters clamps to >= 1");
    }

    #[test]
    fn runner_measures_and_counts() {
        let mut r = Runner::with_config(
            "test",
            BenchConfig {
                warmup: 1,
                iters: 4,
            },
        );
        let mut calls = 0u32;
        let m = r.bench("count-calls", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5, "1 warmup + 4 timed");
        assert_eq!(m.samples_ns.len(), 4);
        assert!(m.min_ns() <= m.median_ns());
        r.throughput_elems(1000);
        let m2 = r.bench("with-throughput", || std::hint::black_box(2 + 2));
        assert_eq!(m2.throughput_elems, Some(1000));
        let m3 = r.bench("throughput-resets", || ());
        assert_eq!(m3.throughput_elems, None);
        r.finish();
    }

    #[test]
    fn measurement_median_is_lower_middle() {
        let m = Measurement {
            group: "g".into(),
            name: "n".into(),
            samples_ns: vec![10, 20, 30, 40],
            throughput_elems: None,
        };
        assert_eq!(m.median_ns(), 20);
        assert_eq!(m.min_ns(), 10);
    }
}
