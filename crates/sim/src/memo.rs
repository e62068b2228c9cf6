//! Process-wide memo of L1-filtered runs.
//!
//! Every L2 design the evaluation compares sits behind the same L1 pair
//! (T1, constants of [`crate::config`]), and the L1 filter decision is
//! time-independent (see
//! [`crate::lockstep`]). So for one stream, every design sees the same
//! L2-visible request sequence, and the L1 pair ends in the same state.
//! A sweep that replays that sequence into many design lanes, custom
//! runners and MRC profiles only needs to generate (or decode) and
//! filter it once.
//!
//! [`RunMemo`] holds those filtered runs — the
//! [`FilteredChunk`]s of exactly `refs` references plus the L1 pair
//! after them — keyed by
//!
//! * the stream's source fingerprint — the profile fingerprint, a
//!   registered trace file's own fingerprint, or a co-scheduled mix's,
//!   so decoded, generated and mixed streams never share a run;
//! * the seed;
//! * `refs`, the exact run length — runs of different lengths are
//!   separate entries (sharing a prefix would need an L1 snapshot per
//!   chunk).
//!
//! No system setting enters the key: the one a plan may set (A5's L2
//! prefetcher) acts behind the L1 pair, so it never changes a run.
//!
//! # Bound
//!
//! The memo holds at most [`MEMO_CAP_BYTES`] of runs: each run is
//! charged its packed events — 12 bytes per L2-visible event plus 8 per
//! writeback it carries — plus its L1 pair. Runs are inserted until the
//! memo is full and never evicted. Bytes are reserved while a run is
//! built, so builds in flight count against the cap too. A build that
//! outgrows the cap is finished anyway: it releases its reservation,
//! marks its key *rejected* and is handed back uncached, to be dropped
//! with the plan that asked for it. Every later consumer of a rejected
//! key filters the stream into a private run of its own.
//!
//! # Concurrency
//!
//! Each key has its own lock, held while the run is built: concurrent
//! consumers of one key wait for that one build instead of repeating it.
//!
//! # Determinism
//!
//! A memoized run is the exact sequence a live front end would produce,
//! so a hit, a miss and a rejected key all replay the same chunks and
//! every report is byte-identical for any memo state and any job count.

use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use moca_cache::stats::CacheStats;
use moca_trace::fxhash::FxHashMap;
use moca_trace::MemoryAccess;

use crate::lockstep::{FilteredChunk, FrontEnd};
use crate::parallel::catch_panic;
use crate::stream::{TraceStream, STREAM_CHUNK};

/// Bound of the global memo in bytes: 512 chunks of raw references,
/// the budget of the raw-chunk cache the memo replaced, so the memory
/// ceiling of a run does not rise.
///
/// Runs are charged their packed size, about 16 bytes per L2-visible
/// event (12, plus 8 for the roughly half of events carrying a
/// writeback), so the full suite's memoized runs fill about 40% of it.
pub const MEMO_CAP_BYTES: usize = 512 * STREAM_CHUNK * size_of::<MemoryAccess>();

/// The identity of one filtered run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    source: u64,
    seed: u64,
    refs: u64,
}

impl RunKey {
    fn new(stream: &TraceStream<'_>, refs: usize) -> Self {
        RunKey {
            source: stream.source_fingerprint(),
            seed: stream.seed(),
            refs: refs as u64,
        }
    }
}

/// The L2-visible stream of exactly `refs` references of one stream,
/// plus the L1 pair's statistics after them (lanes adopt them before
/// `finish`).
#[derive(Debug)]
pub(crate) struct FilteredRun {
    pub(crate) chunks: Vec<FilteredChunk>,
    pub(crate) l1: CacheStats,
}

impl FilteredRun {
    /// Filters the first `refs` references of `stream` into a run,
    /// handing the heap bytes of each piece it keeps to `charge`.
    pub(crate) fn filter(
        stream: TraceStream<'_>,
        refs: usize,
        mut charge: impl FnMut(usize),
    ) -> Self {
        let mut chunks = Vec::new();
        let (l1, _) = FrontEnd::over(stream).filter(refs, |chunk| {
            let chunk = chunk.to_owned_exact();
            charge(chunk.heap_bytes());
            chunks.push(chunk);
        });
        FilteredRun { chunks, l1 }
    }
}

/// The state behind one key's lock.
#[derive(Debug)]
enum Slot {
    /// Not built yet, or its build panicked.
    Empty,
    Ready(Arc<FilteredRun>),
    /// Built once and did not fit: consumers filter private runs of
    /// their own. The memo never evicts, so the run would not fit
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

    /// Replays the filtered run of the first `refs` references of
    /// `stream` under the T1 L1 pair: `visit` sees every chunk in
    /// stream order, and the pair's statistics after the run come back.
    ///
    /// The run comes from the memo when cached; otherwise it is built
    /// here (concurrent callers of the same key wait for this build)
    /// and offered to the memo.
    pub fn replay(
        &self,
        stream: TraceStream<'_>,
        refs: usize,
        visit: impl FnMut(&FilteredChunk),
    ) -> CacheStats {
        let run = self.obtain(stream, refs);
        run.chunks.iter().for_each(visit);
        run.l1
    }

    /// The whole run [`RunMemo::replay`] walks, obtained without
    /// replaying it: a hit, or a build (concurrent callers of the same
    /// key wait for it). The run of a rejected key is built here too,
    /// and handed back uncached.
    pub(crate) fn obtain(&self, stream: TraceStream<'_>, refs: usize) -> Arc<FilteredRun> {
        let key = RunKey::new(&stream, refs);
        let slot = Arc::clone(
            self.lock()
                .slots
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(Slot::Empty))),
        );
        let state = slot.lock().unwrap_or_else(PoisonError::into_inner);
        match &*state {
            Slot::Ready(run) => {
                let run = Arc::clone(run);
                drop(state);
                self.lock().hits += 1;
                run
            }
            Slot::Rejected => {
                drop(state);
                self.lock().misses += 1;
                Arc::new(FilteredRun::filter(stream, refs, |_| {}))
            }
            Slot::Empty => {
                self.lock().misses += 1;
                self.build(state, stream, refs)
            }
        }
    }

    /// Builds the run of an empty slot while holding its lock, and
    /// either caches it or, when it outgrew the cap, marks the key
    /// rejected and hands the finished run back uncached.
    fn build(
        &self,
        mut state: MutexGuard<'_, Slot>,
        stream: TraceStream<'_>,
        refs: usize,
    ) -> Arc<FilteredRun> {
        let mut held = Reservation {
            memo: self,
            bytes: 0,
        };
        let mut fits = true;
        let run = Arc::new(FilteredRun::filter(stream, refs, |bytes| {
            fits = fits && held.grow(bytes);
        }));
        if fits {
            held.commit();
            *state = Slot::Ready(Arc::clone(&run));
        } else {
            *state = Slot::Rejected;
            self.lock().rejected += 1;
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::lockstep::{execute, Plan};
    use crate::parallel::Jobs;
    use crate::system::System;
    use crate::workloads::run_app;
    use moca_core::L2Design;
    use moca_trace::AppProfile;

    fn designs() -> [L2Design; 2] {
        [L2Design::baseline(), L2Design::static_default()]
    }

    /// The reports of a plan every design of which is valid.
    fn reports(plan: Plan<'_>) -> Vec<crate::SimReport> {
        execute(&plan, Jobs::SERIAL)
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
    fn l2_config_change_hits() {
        let app = AppProfile::music();
        let refs = 30_000;
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let default = SystemConfig::default();
        let other_l2 = SystemConfig {
            l2_next_line_prefetch: true,
        };
        let pool = designs();
        for cfg in [default, other_l2] {
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
        assert_eq!((stats.runs, stats.misses, stats.hits), (1, 1, 1));
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
    fn rejected_runs_warn_and_a_fitting_memo_does_not() {
        let app = AppProfile::email();
        let full = RunMemo::with_capacity(0);
        full.replay(TraceStream::new(&app, 9), 10_000, |_| {});
        let warning = full
            .stats()
            .rejection_warning()
            .expect("a rejected run warns");
        assert!(warning.contains("1 run(s) rejected"), "{warning}");

        let roomy = RunMemo::with_capacity(MEMO_CAP_BYTES);
        roomy.replay(TraceStream::new(&app, 9), 10_000, |_| {});
        assert!(roomy.stats().rejection_warning().is_none());
        assert!(roomy.stats().used_bytes > 0);
    }

    #[test]
    fn a_mix_and_its_apps_are_distinct_runs() {
        let (browser, music) = (AppProfile::browser(), AppProfile::music());
        let mix = crate::stream::Mix::new(vec![browser.clone(), music.clone()], 2_000)
            .expect("valid mix");
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let refs = STREAM_CHUNK + 3;
        let mixed = TraceStream::of(crate::stream::Source::Mix(&mix), 1);
        for stream in [
            TraceStream::new(&browser, 1),
            TraceStream::new(&music, 1),
            mixed,
        ] {
            memo.replay(stream, refs, |_| {});
        }
        let stats = memo.stats();
        assert_eq!((stats.runs, stats.misses, stats.hits), (3, 3, 0));
    }

    #[test]
    fn global_memo_is_shared_and_bounded() {
        let memo = RunMemo::global();
        assert_eq!(memo.stats().cap_bytes, MEMO_CAP_BYTES);
        assert!(std::ptr::eq(memo, RunMemo::global()));
    }
}
