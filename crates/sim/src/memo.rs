//! Process-wide memo of L1-filtered runs.
//!
//! Every L2 design the evaluation compares sits behind the same L1 pair
//! (T1), and the L1 filter decision is time-independent (see
//! [`crate::lockstep`]). So for one stream, every design sees the same
//! L2-visible request sequence, and the L1 pair ends in the same state.
//! A sweep that replays that sequence into many lane groups, custom
//! runners and MRC profiles only needs to generate (or decode) and
//! filter it once.
//!
//! [`RunMemo`] holds those filtered runs — the
//! [`FilteredChunk`]s of exactly `refs` references plus the L1 pair
//! after them — keyed by
//!
//! * the stream's source fingerprint — the profile fingerprint, or a
//!   registered trace file's own fingerprint, so decoded and generated
//!   streams never share a run;
//! * the seed;
//! * `refs`, the exact run length — runs of different lengths are
//!   separate entries (sharing a prefix would need an L1 snapshot per
//!   chunk);
//! * the L1 geometry (`l1i_bytes`, `l1d_bytes`, `l1_ways`,
//!   `line_bytes`; the L1 replacement policy is always LRU).
//!
//! # Bound
//!
//! The memo holds at most [`MEMO_CAP_BYTES`] of runs: each run is
//! charged its events plus its L1 pair. Runs are inserted until the
//! memo is full and never evicted; a run that does not fit is
//! *rejected* and every consumer of its key filters the stream itself,
//! replaying the recorded prefix first. Bytes are reserved while a run
//! is built, so builds in flight count against the cap too.
//!
//! # Concurrency
//!
//! Each key has its own lock, held while the run is built: concurrent
//! consumers of one key wait for that one build instead of repeating it.
//! A build polls its caller's [`CancelToken`] once per chunk; a
//! cancelled build is dropped, never inserted, and the next consumer
//! builds the run again.
//!
//! # Determinism
//!
//! A memoized run is the exact sequence a live front end would produce,
//! so a hit, a miss and a rejected key all replay the same chunks and
//! every report is byte-identical for any memo state and any job count.

use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use moca_cache::L1Pair;
use moca_trace::fxhash::FxHashMap;
use moca_trace::{AppProfile, MemoryAccess};

use crate::cancel::{CancelToken, Cancelled};
use crate::config::SystemConfig;
use crate::lockstep::{FilteredChunk, FrontEnd};
use crate::parallel::catch_panic;
use crate::stream::{TraceStream, STREAM_CHUNK};

/// Bound of the global memo in bytes: 512 chunks of raw references,
/// the budget of the raw-chunk cache the memo replaced, so the memory
/// ceiling of a run does not rise.
pub const MEMO_CAP_BYTES: usize = 512 * STREAM_CHUNK * size_of::<MemoryAccess>();

/// The identity of one filtered run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    source: u64,
    seed: u64,
    refs: u64,
    l1i_bytes: u64,
    l1d_bytes: u64,
    l1_ways: u32,
    line_bytes: u64,
}

impl RunKey {
    fn new(stream: &TraceStream<'_>, seed: u64, refs: usize, cfg: &SystemConfig) -> Self {
        RunKey {
            source: stream.source_fingerprint(),
            seed,
            refs: refs as u64,
            l1i_bytes: cfg.l1i_bytes,
            l1d_bytes: cfg.l1d_bytes,
            l1_ways: cfg.l1_ways,
            line_bytes: cfg.line_bytes,
        }
    }
}

/// The L2-visible stream of exactly `refs` references of one stream,
/// plus the L1 pair after them (lanes adopt it before `finish`).
#[derive(Debug)]
struct FilteredRun {
    chunks: Vec<FilteredChunk>,
    l1: L1Pair,
}

/// The state behind one key's lock.
#[derive(Debug)]
enum Slot {
    /// Not built yet, or the last build was cancelled.
    Empty,
    Ready(Arc<FilteredRun>),
    /// Built once and did not fit: consumers filter the stream
    /// themselves. The memo never evicts, so the run would not fit
    /// later either.
    Rejected,
}

#[derive(Debug, Default)]
struct MemoInner {
    slots: FxHashMap<RunKey, Arc<Mutex<Slot>>>,
    /// Bytes of cached runs plus bytes reserved by builds in flight.
    used_bytes: usize,
    runs: usize,
    hits: u64,
    misses: u64,
    rejected: u64,
}

/// Counters describing a memo's contents and effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Runs currently cached.
    pub runs: usize,
    /// Bytes charged to the cached runs (and to builds in flight).
    pub used_bytes: usize,
    /// The memo's bound in bytes.
    pub cap_bytes: usize,
    /// Replays served from a cached run.
    pub hits: u64,
    /// Replays that had to filter the stream (builds, and consumers of
    /// rejected keys).
    pub misses: u64,
    /// Built runs not kept because the memo was full.
    pub rejected: u64,
}

impl MemoStats {
    /// A warning line when a run was rejected, `None` otherwise.
    ///
    /// Every consumer of a rejected key re-filters its stream, which is
    /// easy to miss behind a healthy-looking hit count.
    pub fn rejection_warning(&self) -> Option<String> {
        (self.rejected > 0).then(|| {
            format!(
                "warning: filtered-run memo full ({:.1} of {:.1} MiB), {} run(s) rejected — \
                 their streams are re-filtered per consumer",
                mib(self.used_bytes),
                mib(self.cap_bytes),
                self.rejected
            )
        })
    }
}

/// Bytes as MiB, for footers.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

/// What one [`RunMemo::replay`] call leaves its caller.
#[derive(Debug)]
pub struct Replayed {
    /// The L1 pair after the run.
    pub l1: L1Pair,
    /// Wall time spent obtaining the run (memo lookup, waiting for a
    /// concurrent build, or filtering), excluding the caller's visits.
    pub front_ns: u64,
}

/// Where a replay reads its chunks from.
enum Source<'m, 'a> {
    Cached(Arc<FilteredRun>),
    /// An unmemoized or rejected run: the recorded prefix (still
    /// charged to the memo until it is dropped), then the live front
    /// end for `left` more references.
    Live {
        prefix: Vec<FilteredChunk>,
        held: Option<Reservation<'m>>,
        front: Box<FrontEnd<'a>>,
        left: usize,
    },
}

impl<'a> Source<'_, 'a> {
    /// A run filtered live from the start of `stream`.
    fn live(stream: TraceStream<'a>, cfg: &SystemConfig, refs: usize) -> Self {
        Source::Live {
            prefix: Vec::new(),
            held: None,
            front: Box::new(front_end(stream, cfg)),
            left: refs,
        }
    }

    /// Feeds every chunk to `visit` and returns the L1 pair after the
    /// run; `start` is when the caller began obtaining the run.
    fn drain(
        self,
        start: Instant,
        cancel: Option<&CancelToken>,
        mut visit: impl FnMut(&FilteredChunk),
    ) -> Result<Replayed, Cancelled> {
        let mut front_ns = start.elapsed().as_nanos() as u64;
        let l1 = match self {
            Source::Cached(run) => {
                for chunk in &run.chunks {
                    poll(cancel)?;
                    visit(chunk);
                }
                run.l1.clone()
            }
            Source::Live {
                prefix,
                held,
                mut front,
                mut left,
            } => {
                for chunk in &prefix {
                    poll(cancel)?;
                    visit(chunk);
                }
                drop(prefix);
                drop(held);
                let mut chunk = FilteredChunk::default();
                while left > 0 {
                    poll(cancel)?;
                    let fill = Instant::now();
                    left -= front.fill_next(left, &mut chunk);
                    front_ns += fill.elapsed().as_nanos() as u64;
                    visit(&chunk);
                }
                front.into_l1()
            }
        };
        Ok(Replayed { l1, front_ns })
    }
}

/// Filters the first `refs` references of the `(app, seed)` stream live,
/// without a memo: [`RunMemo::replay`]'s contract for a stream read
/// exactly once, where caching the run would only fill the memo.
///
/// # Errors
///
/// Returns [`Cancelled`] if `cancel` tripped before the last chunk was
/// visited.
///
/// # Panics
///
/// Panics if `cfg`'s L1 geometry is invalid (see [`RunMemo::replay`]).
pub(crate) fn replay_unmemoized(
    app: &AppProfile,
    seed: u64,
    cfg: &SystemConfig,
    refs: usize,
    cancel: Option<&CancelToken>,
    visit: impl FnMut(&FilteredChunk),
) -> Result<Replayed, Cancelled> {
    let start = Instant::now();
    Source::live(TraceStream::new(app, seed), cfg, refs).drain(start, cancel, visit)
}

/// `Err(Cancelled)` once `cancel` has tripped.
fn poll(cancel: Option<&CancelToken>) -> Result<(), Cancelled> {
    match cancel {
        Some(token) if token.is_cancelled() => Err(Cancelled),
        _ => Ok(()),
    }
}

/// Bytes a build has reserved against the cap; released on drop unless
/// the run was committed to the memo.
struct Reservation<'m> {
    memo: &'m RunMemo,
    bytes: usize,
}

impl Reservation<'_> {
    /// Reserves `bytes` more, or returns `false` when they do not fit.
    fn grow(&mut self, bytes: usize) -> bool {
        let mut inner = self.memo.lock();
        if inner.used_bytes + bytes > self.memo.cap_bytes {
            return false;
        }
        inner.used_bytes += bytes;
        self.bytes += bytes;
        true
    }

    /// Keeps the reserved bytes as one cached run.
    fn commit(mut self) {
        self.memo.lock().runs += 1;
        self.bytes = 0;
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            self.memo.lock().used_bytes -= self.bytes;
        }
    }
}

/// A bounded, thread-safe memo of filtered runs.
///
/// Most callers never touch a memo directly: the lock-step engine, the
/// MRC profiler and the custom-runner experiments replay through
/// [`RunMemo::global`]. Private memos (tests, benchmarks) come from
/// [`RunMemo::with_capacity`].
#[derive(Debug)]
pub struct RunMemo {
    inner: Mutex<MemoInner>,
    cap_bytes: usize,
}

impl RunMemo {
    /// A private memo bounded at `cap_bytes`.
    pub fn with_capacity(cap_bytes: usize) -> Self {
        RunMemo {
            inner: Mutex::new(MemoInner::default()),
            cap_bytes,
        }
    }

    /// The process-wide memo, bounded at [`MEMO_CAP_BYTES`].
    pub fn global() -> &'static RunMemo {
        static GLOBAL: OnceLock<RunMemo> = OnceLock::new();
        GLOBAL.get_or_init(|| RunMemo::with_capacity(MEMO_CAP_BYTES))
    }

    fn lock(&self) -> MutexGuard<'_, MemoInner> {
        // A poisoned lock means a panicking thread held it mid-update;
        // every critical section leaves the counters consistent, so
        // continuing is safe (mirrors `parallel::parallel_map`).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            runs: inner.runs,
            used_bytes: inner.used_bytes,
            cap_bytes: self.cap_bytes,
            hits: inner.hits,
            misses: inner.misses,
            rejected: inner.rejected,
        }
    }

    /// Deliberately poisons the memo's lock (fault injection).
    ///
    /// Spawns a short-lived thread that panics while holding the lock,
    /// leaving the `Mutex` poisoned — exactly the state a crashed worker
    /// leaves behind. Every accessor recovers via
    /// [`PoisonError::into_inner`], so replays and [`RunMemo::stats`]
    /// keep working afterwards; the fault-tolerance suite pins that.
    pub fn poison(&self) {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // catch_panic keeps the injected panic from reaching the
                // process hook; the guard still drops during unwinding,
                // which is what marks the mutex poisoned.
                let _ = catch_panic(|| {
                    let _guard = self.inner.lock();
                    panic!("injected memo poison");
                });
            });
        });
    }

    /// Replays the filtered run of the first `refs` references of the
    /// `(app, seed)` stream under `cfg`'s L1 pair: `visit` sees every
    /// chunk in stream order, and the L1 pair after the run comes back.
    ///
    /// The run comes from the memo when cached; otherwise it is built
    /// here (concurrent callers of the same key wait for this build)
    /// and offered to the memo. `cancel`, when given, is polled before
    /// every chunk, built or visited.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if `cancel` tripped before the last chunk
    /// was visited.
    ///
    /// # Panics
    ///
    /// Panics if `cfg`'s L1 geometry is invalid; callers build a
    /// [`System`](crate::System) from the same config first, which
    /// validates it.
    pub fn replay(
        &self,
        app: &AppProfile,
        seed: u64,
        cfg: &SystemConfig,
        refs: usize,
        cancel: Option<&CancelToken>,
        visit: impl FnMut(&FilteredChunk),
    ) -> Result<Replayed, Cancelled> {
        let start = Instant::now();
        let stream = TraceStream::new(app, seed);
        let key = RunKey::new(&stream, seed, refs, cfg);
        let slot = Arc::clone(
            self.lock()
                .slots
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(Slot::Empty))),
        );
        let state = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let source = match &*state {
            Slot::Ready(run) => {
                let run = Arc::clone(run);
                drop(state);
                self.lock().hits += 1;
                Source::Cached(run)
            }
            Slot::Rejected => {
                drop(state);
                self.lock().misses += 1;
                Source::live(stream, cfg, refs)
            }
            Slot::Empty => {
                self.lock().misses += 1;
                self.build(state, stream, cfg, refs, cancel)?
            }
        };
        source.drain(start, cancel, visit)
    }

    /// Builds the run of an empty slot while holding its lock, and
    /// either caches it or marks the key rejected.
    fn build<'m, 'a>(
        &'m self,
        mut state: MutexGuard<'_, Slot>,
        stream: TraceStream<'a>,
        cfg: &SystemConfig,
        refs: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Source<'m, 'a>, Cancelled> {
        let mut front = front_end(stream, cfg);
        let mut held = Reservation {
            memo: self,
            bytes: 0,
        };
        let mut chunks = Vec::new();
        let mut fits = held.grow(front.l1().heap_bytes());
        let mut scratch = FilteredChunk::default();
        let mut left = refs;
        while fits && left > 0 {
            poll(cancel)?;
            left -= front.fill_next(left, &mut scratch);
            let chunk = scratch.to_owned_exact();
            fits = held.grow(chunk.heap_bytes());
            chunks.push(chunk);
        }
        if !fits {
            *state = Slot::Rejected;
            self.lock().rejected += 1;
            return Ok(Source::Live {
                prefix: chunks,
                held: Some(held),
                front: Box::new(front),
                left,
            });
        }
        let run = Arc::new(FilteredRun {
            chunks,
            l1: front.into_l1(),
        });
        held.commit();
        *state = Slot::Ready(Arc::clone(&run));
        Ok(Source::Cached(run))
    }
}

/// The front end filtering `stream` with `cfg`'s L1 pair.
fn front_end<'a>(stream: TraceStream<'a>, cfg: &SystemConfig) -> FrontEnd<'a> {
    FrontEnd::over(stream, cfg).expect("callers validate the L1 geometry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::{execute, Plan};
    use crate::parallel::Jobs;
    use crate::system::System;
    use crate::workloads::run_app;
    use moca_core::L2Design;

    fn designs() -> [L2Design; 2] {
        [L2Design::baseline(), L2Design::static_default()]
    }

    /// The reports of a plan every design of which is valid.
    fn reports(plan: Plan<'_>) -> Vec<crate::SimReport> {
        execute(&plan, Jobs::SERIAL, None)
            .expect("no cancel token")
            .into_iter()
            .map(|p| p.expect("valid design").report)
            .collect()
    }

    fn rendered(reports: &[crate::SimReport]) -> Vec<String> {
        reports.iter().map(|r| format!("{r:?}")).collect()
    }

    #[test]
    fn two_lengths_of_one_stream_are_distinct_runs_that_match_run_app() {
        // The F8 (6M) vs F5 (3M) browser case, scaled down.
        let app = AppProfile::browser();
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let pool = designs();
        for refs in [2 * STREAM_CHUNK + 99, 4 * STREAM_CHUNK + 198] {
            let got = reports(Plan::new(&app, 11, refs, &pool).with_memo(&memo));
            let want: Vec<_> = designs()
                .iter()
                .map(|d| run_app(&app, *d, refs, 11))
                .collect();
            assert_eq!(rendered(&got), rendered(&want), "refs = {refs}");
        }
        let stats = memo.stats();
        assert_eq!((stats.runs, stats.misses, stats.hits), (2, 2, 0));
    }

    #[test]
    fn l1_geometry_change_misses_and_l2_config_change_hits() {
        let app = AppProfile::music();
        let refs = 30_000;
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let default = SystemConfig::default();
        let small_l1 = SystemConfig {
            l1d_bytes: 16 << 10,
            ..default
        };
        let other_l2 = SystemConfig {
            dram_latency_cycles: 200,
            ..default
        };
        let pool = designs();
        for cfg in [default, small_l1, other_l2] {
            let got = reports(
                Plan::new(&app, 4, refs, &pool)
                    .with_config(cfg)
                    .with_memo(&memo),
            );
            let want: Vec<_> = designs()
                .iter()
                .map(|&d| {
                    let mut sys = System::new(app.name, d, cfg).expect("valid");
                    sys.run(moca_trace::TraceGenerator::new(&app, 4).take(refs));
                    sys.finish()
                })
                .collect();
            assert_eq!(rendered(&got), rendered(&want), "cfg = {cfg:?}");
        }
        let stats = memo.stats();
        assert_eq!((stats.runs, stats.misses, stats.hits), (2, 2, 1));
    }

    #[test]
    fn concurrent_consumers_of_one_key_share_one_build() {
        let app = AppProfile::game();
        let refs = 3 * STREAM_CHUNK + 5;
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let before = crate::lockstep::front_end_refs();
        let start = std::sync::Barrier::new(4);
        let pool = designs();
        let reports: Vec<Vec<String>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        rendered(&reports(Plan::new(&app, 6, refs, &pool).with_memo(&memo)))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        assert!(reports.windows(2).all(|w| w[0] == w[1]));
        let stats = memo.stats();
        assert_eq!((stats.runs, stats.misses, stats.hits), (1, 1, 3));
        assert!(crate::lockstep::front_end_refs() >= before + refs as u64);
    }

    #[test]
    fn cancelled_build_is_never_inserted() {
        let app = AppProfile::video();
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let cfg = SystemConfig::default();
        let token = CancelToken::new();
        token.cancel();
        let out = memo.replay(&app, 8, &cfg, 20_000, Some(&token), |_| {});
        assert_eq!(out.err(), Some(Cancelled));
        let stats = memo.stats();
        assert_eq!((stats.runs, stats.used_bytes, stats.rejected), (0, 0, 0));
        // The next consumer builds the run itself.
        let mut refs = 0;
        memo.replay(&app, 8, &cfg, 20_000, None, |chunk| refs += chunk.refs())
            .expect("not cancelled");
        assert_eq!(refs, 20_000);
        assert_eq!(memo.stats().runs, 1);
    }

    #[test]
    fn rejected_runs_warn_and_a_fitting_memo_does_not() {
        let app = AppProfile::email();
        let cfg = SystemConfig::default();
        let full = RunMemo::with_capacity(0);
        full.replay(&app, 9, &cfg, 10_000, None, |_| {})
            .expect("runs");
        let warning = full
            .stats()
            .rejection_warning()
            .expect("a rejected run warns");
        assert!(warning.contains("1 run(s) rejected"), "{warning}");

        let roomy = RunMemo::with_capacity(MEMO_CAP_BYTES);
        roomy
            .replay(&app, 9, &cfg, 10_000, None, |_| {})
            .expect("runs");
        assert!(roomy.stats().rejection_warning().is_none());
        assert!(roomy.stats().used_bytes > 0);
    }

    #[test]
    fn global_memo_is_shared_and_bounded() {
        let memo = RunMemo::global();
        assert_eq!(memo.stats().cap_bytes, MEMO_CAP_BYTES);
        assert!(std::ptr::eq(memo, RunMemo::global()));
    }
}
