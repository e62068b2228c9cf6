//! Deterministic multi-threaded execution of independent simulations.
//!
//! The experiment suite is dominated by embarrassingly parallel sweeps:
//! every design point / app pair is an independent trace-driven
//! simulation with its own seeded generator. This module shards such
//! work across OS threads (`std::thread` only — the workspace builds
//! offline with zero external dependencies) while keeping results
//! **bit-identical to the serial path for any thread count**:
//!
//! * each work item owns its inputs (in particular its RNG seed), so no
//!   simulation observes another's state;
//! * workers pull items from a shared queue (dynamic load balancing —
//!   sweep points vary widely in cost), tagging each result with its
//!   input index;
//! * results are merged back **in input order** before being returned.
//!
//! Because item execution is pure and the merge order is the input
//! order, `parallel_map(jobs, items, f)` returns exactly
//! `items.into_iter().map(f).collect()` for every `jobs` value — the
//! golden-figure tests double as determinism oracles
//! (`crates/sim/tests/determinism.rs`).

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::time::Instant;

use crate::telemetry::{self, Event};

/// Worker-thread count for parallel experiment execution.
///
/// `Jobs::SERIAL` (one job) makes every `*_parallel` entry point run the
/// plain sequential loop on the calling thread; any other count spawns
/// that many workers. Output is identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// One job: run on the calling thread, no spawning.
    pub const SERIAL: Jobs = Jobs(NonZeroUsize::MIN);

    /// `n` worker threads (clamped up to at least 1).
    pub fn new(n: usize) -> Self {
        Jobs(NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero"))
    }

    /// One job per available hardware thread (falls back to 1 when the
    /// parallelism cannot be queried).
    pub fn available() -> Self {
        Jobs(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The job count.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    /// Defaults to [`Jobs::available`].
    fn default() -> Self {
        Jobs::available()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for Jobs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let n: usize = s
            .parse()
            .map_err(|_| format!("invalid job count: {s:?}"))?;
        if n == 0 {
            return Err("job count must be >= 1".into());
        }
        Ok(Jobs::new(n))
    }
}

/// Applies `f` to every item, sharding the work over `jobs` threads, and
/// returns the results **in input order**.
///
/// Semantically equivalent to `items.into_iter().map(f).collect()`; the
/// output is bit-identical for every `jobs` value because `f` runs on
/// owned, independent inputs and the merge is index-ordered. Workers
/// pull from a shared queue, so heterogeneous item costs balance
/// automatically.
///
/// A panic inside `f` is propagated to the caller after the remaining
/// workers drain (matching the serial path's fail-fast semantics as
/// closely as a multi-threaded run can).
///
/// # Examples
///
/// ```
/// use moca_sim::parallel::{parallel_map, Jobs};
///
/// let squares = parallel_map(Jobs::new(4), (0u64..100).collect(), |x| x * x);
/// assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T, R, F>(jobs: Jobs, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.get().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || {
                // Telemetry is enabled-checked once per worker: the
                // disabled path adds one load per spawned thread, and
                // the per-item timing below is skipped entirely.
                let tele = telemetry::enabled();
                if tele {
                    telemetry::record(Event::WorkerStart {
                        pool: "parallel_map",
                        worker: worker as u32,
                        jobs: workers as u32,
                    });
                }
                let mut items = 0u64;
                let mut busy_ns = 0u64;
                loop {
                    // Hold the lock only to take the next item, never while
                    // running `f`. A poisoned lock means a sibling worker
                    // panicked mid-`next()`; the queue state is still valid
                    // (enumerate() has no invariants to break), so keep
                    // draining — the panic is re-raised by the scope.
                    let next = match queue.lock() {
                        Ok(mut it) => it.next(),
                        Err(poisoned) => poisoned.into_inner().next(),
                    };
                    match next {
                        Some((idx, item)) => {
                            let start = tele.then(Instant::now);
                            let result = f(item);
                            if let Some(start) = start {
                                busy_ns += start.elapsed().as_nanos() as u64;
                                items += 1;
                            }
                            if tx.send((idx, result)).is_err() {
                                break; // receiver gone: caller is unwinding
                            }
                        }
                        None => break,
                    }
                }
                if tele {
                    telemetry::record(Event::WorkerStop {
                        pool: "parallel_map",
                        worker: worker as u32,
                        jobs: workers as u32,
                        items,
                        busy_ns,
                    });
                }
            });
        }
        drop(tx);
        // Merge in input order: slot each tagged result by its index.
        for (idx, result) in rx {
            out[idx] = Some(result);
        }
        // Worker panics propagate when the scope joins its threads here.
    });

    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("worker dropped result for item {i}")))
        .collect()
}

thread_local! {
    /// Set while the current thread is inside [`catch_panic`]: the
    /// process panic hook stays quiet for these expected, contained
    /// panics instead of spraying a report per isolated work item.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that forwards to the
/// previous hook unless the panicking thread is inside [`catch_panic`].
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Renders a panic payload as a deterministic message.
///
/// `panic!`/`assert!` payloads are `&str` or `String`; anything else
/// (rare — `panic_any` with a custom type) maps to a fixed placeholder
/// so the rendering stays byte-stable across runs and thread counts.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f`, converting a panic into `Err(message)` instead of
/// unwinding further.
///
/// This is the isolation primitive behind the sweep executor's lanes
/// ([`crate::lockstep::execute`]) and [`parallel_map_isolated`]: the
/// panic is contained on the current thread, its payload is preserved
/// as a deterministic string, and the process panic hook is
/// muted for the duration (a sweep with hundreds of injected faults
/// should not print hundreds of backtraces).
///
/// `AssertUnwindSafe` note: callers must not reuse state `f` mutated
/// before panicking — the isolated callers drop the failed item's
/// `System` (and discard its result slot) rather than touching it again.
///
/// # Examples
///
/// ```
/// use moca_sim::parallel::catch_panic;
///
/// assert_eq!(catch_panic(|| 21 * 2), Ok(42));
/// let err = catch_panic(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
/// assert_eq!(err, "boom 7");
/// ```
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_panic_hook();
    // Restore rather than clear: an isolated lane inside an isolated
    // experiment must leave the outer scope quiet.
    let outer = QUIET_PANICS.with(|q| q.replace(true));
    let result = std::panic::catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(outer));
    result.map_err(panic_message)
}

/// [`parallel_map`] with per-item panic isolation: a panic inside `f`
/// yields `Err(message)` for that item while every other item still
/// completes and the queue keeps draining.
///
/// The output is in input order and — because each item's outcome
/// depends only on the item — both the `Ok` results and the failed-item
/// *set* (indices and messages) are byte-identical for every `jobs`
/// value. This is the foundation of the fault-tolerance determinism
/// contract (`crates/sim/tests/fault_tolerance.rs`).
///
/// # Examples
///
/// ```
/// use moca_sim::parallel::{parallel_map_isolated, Jobs};
///
/// let out = parallel_map_isolated(Jobs::new(4), (0u64..8).collect(), |x| {
///     assert!(x != 5, "bad item");
///     x * x
/// });
/// assert_eq!(out[4], Ok(16));
/// assert_eq!(out[5], Err("bad item".to_string()));
/// assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
/// ```
pub fn parallel_map_isolated<T, R, F>(
    jobs: Jobs,
    items: Vec<T>,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map(jobs, items, |item| catch_panic(|| f(item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_for_all_job_counts() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = parallel_map(Jobs::new(jobs), items.clone(), |x| {
                x.wrapping_mul(2654435761)
            });
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn order_is_input_order_under_skewed_costs() {
        // Early items sleep longest: completion order is roughly the
        // reverse of input order, but the merged output must not be.
        let items: Vec<usize> = (0..16).collect();
        let got = parallel_map(Jobs::new(8), items.clone(), |i| {
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i * 10
        });
        assert_eq!(got, items.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = parallel_map(Jobs::new(8), Vec::<u32>::new(), |x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let got = parallel_map(Jobs::new(32), vec![1, 2, 3], |x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn jobs_parses_and_rejects_zero() {
        assert_eq!("4".parse::<Jobs>().expect("valid").get(), 4);
        assert!("0".parse::<Jobs>().is_err());
        assert!("x".parse::<Jobs>().is_err());
        assert_eq!(Jobs::new(0).get(), 1);
        assert!(Jobs::available().get() >= 1);
    }

    #[test]
    fn catch_panic_preserves_string_payloads() {
        assert_eq!(catch_panic(|| 7u32), Ok(7));
        assert_eq!(catch_panic(|| -> u32 { panic!("static str") }), Err("static str".into()));
        let idx = 13;
        assert_eq!(
            catch_panic(|| -> u32 { panic!("item {idx} bad") }),
            Err("item 13 bad".into())
        );
        assert_eq!(
            catch_panic(|| -> u32 { std::panic::panic_any(42u64) }),
            Err("non-string panic payload".into())
        );
    }

    #[test]
    fn isolated_map_contains_panics_and_keeps_draining() {
        let out = parallel_map_isolated(Jobs::new(4), (0u32..64).collect(), |x| {
            assert!(x % 10 != 7, "multiple-of-ten-plus-seven: {x}");
            x + 1
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i % 10 == 7 {
                assert_eq!(*r, Err(format!("multiple-of-ten-plus-seven: {i}")));
            } else {
                assert_eq!(*r, Ok(i as u32 + 1));
            }
        }
    }

    #[test]
    fn isolated_failed_set_is_identical_across_job_counts() {
        let run = |jobs: usize| {
            parallel_map_isolated(Jobs::new(jobs), (0u32..97).collect(), |x| {
                assert!(x % 13 != 4, "fault at {x}");
                x.wrapping_mul(2654435761)
            })
        };
        let reference = run(1);
        for jobs in [2, 3, 8] {
            assert_eq!(run(jobs), reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(Jobs::new(4), (0..32).collect::<Vec<u32>>(), |x| {
                assert!(x != 17, "boom");
                x
            })
        });
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }
}
