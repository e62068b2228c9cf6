//! The sweep executor: every set of L2 designs run over one
//! `(app, seed)` stream goes through [`execute`], on a lock-step
//! multi-design kernel where K designs advance through the same trace
//! reference together, sharing one L1 front end per lane group.
//!
//! A [`Plan`] names the stream, the reference count, the designs and
//! the system configuration; [`execute`] splits the designs into one
//! contiguous span per worker and runs each span as consecutive lane
//! groups. Every lane group does the same three things: it emits a
//! telemetry `point` event per completed lane, polls the cancel token
//! once per filtered chunk, and puts each lane's build error or panic
//! in that lane's own slot while the other lanes keep replaying.
//!
//! The kernel removes the per-design front-end multiplier:
//!
//! * **Shared front end** ([`FrontEnd`]): the L1 filter decision is
//!   *time-independent* — replacement state ([`moca_cache`] LRU) never
//!   reads the access timestamp, so hit/miss, victim choice, and the
//!   demand/writeback requests produced for a reference are a pure
//!   function of the access sequence, not of any design's clock. One
//!   front end therefore filters each chunk once and every design lane
//!   replays the same [`FilteredChunk`]. The filtered run itself comes
//!   from the process-wide [`RunMemo`], so every lane group (and every
//!   other consumer) of one stream shares a single front-end pass.
//! * **Event replay**: a lane only touches its L2 at the L2-visible
//!   events of the chunk. The (dominant) runs of pure L1 hits between
//!   events are retired in O(1) by the closed-form
//!   [`crate::cpu::InOrderCore::retire_many`], at each lane's *own*
//!   local time — so per-design timestamps, stalls, leakage windows and
//!   expiry decisions are bit-identical to a scalar run.
//!
//! Lanes are laid out design-major: within a lane group the per-design
//! state (`System`s, wall clocks, failure slots) sits side-by-side in
//! flat arrays indexed by lane, and the inner loop iterates lanes for
//! one chunk before the front end advances — designs-within-a-lane-group
//! is the axis the work is batched over, extending the ways-within-a-set
//! SWAR batching the caches use internally.
//!
//! # Determinism
//!
//! Every report is **byte-identical** to a sequential
//! [`run_app`](crate::workloads::run_app) of the same design: the L1
//! counts are the front end's (identical by construction, adopted into
//! each lane before [`System::finish`]); the L2/DRAM interactions happen
//! at the same per-lane cycles with the same requests. Failures are
//! deterministic too (build errors are pure functions of the design;
//! panics in a deterministic replay carry a deterministic payload), so
//! the failed-point set is identical for any split of the designs over
//! workers or lane groups. The cross-engine differential suites
//! (`crates/sim/tests/lockstep_differential.rs`, `lockstep_props.rs`)
//! pin this against both the scalar oracle and the broadcast reference
//! engine ([`run_broadcast`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use moca_cache::{L1Pair, L2Request, ReplacementPolicy};
use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::cancel::{CancelToken, Cancelled};
use crate::config::SystemConfig;
use crate::error::{PointCause, SweepPointError};
use crate::memo::{replay_unmemoized, Replayed, RunMemo};
use crate::metrics::SimReport;
use crate::parallel::{catch_panic, parallel_map, Jobs};
use crate::stream::TraceStream;
use crate::system::{BuildSystemError, System};
use crate::telemetry::{self, Event};

/// Default number of design lanes sharing one front-end filter pass.
///
/// Eight matches the widest sweeps in the experiment suite; pools larger
/// than the width run as consecutive lane groups. Memoized groups all
/// replay the one cached filtered run of the stream; an
/// [`unmemoized`](Plan::unmemoized) group filters the stream itself.
pub const LANE_GROUP: usize = 8;

/// One L2-visible event of a filtered chunk: the demand miss (and the
/// dirty-victim writeback it may carry) plus the run of pure L1 hits
/// that preceded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneEvent {
    /// Pure-L1-hit references retired before this event's reference.
    pub gap: u32,
    /// The demand request of the L1 miss (every event is a miss).
    pub demand: L2Request,
    /// Writeback of a dirty L1 victim, if the miss evicted one.
    pub writeback: Option<L2Request>,
}

/// One chunk of the shared stream after L1 filtering: the L2-visible
/// events in order, plus the trailing run of hits.
#[derive(Debug, Default)]
pub struct FilteredChunk {
    refs: u32,
    tail: u32,
    events: Vec<LaneEvent>,
}

impl FilteredChunk {
    /// References this chunk represents (events + every gap + tail).
    pub fn refs(&self) -> usize {
        self.refs as usize
    }

    /// The L2-visible events, in reference order.
    pub fn events(&self) -> &[LaneEvent] {
        &self.events
    }

    /// Pure-L1-hit references after the last event.
    pub fn tail_gap(&self) -> usize {
        self.tail as usize
    }

    /// A copy whose event buffer holds exactly its events, for storing.
    pub(crate) fn to_owned_exact(&self) -> Self {
        FilteredChunk {
            refs: self.refs,
            tail: self.tail,
            events: self.events.to_vec(),
        }
    }

    /// Heap bytes held by the event buffer.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.events.capacity() * std::mem::size_of::<LaneEvent>()
    }
}

/// References generated or decoded and then L1-filtered by any
/// [`FrontEnd`] of this process.
static FRONT_END_REFS: AtomicU64 = AtomicU64::new(0);

/// Total references every front end of this process has generated (or
/// decoded) and L1-filtered — memo builds and unmemoized passes alike.
/// Scheduling-dependent under `--jobs`: it counts work done, and which
/// runs the memo rejects depends on the order workers fill it.
pub fn front_end_refs() -> u64 {
    FRONT_END_REFS.load(Ordering::Relaxed)
}

/// The shared L1 front end: the `(app, seed)` trace stream plus one
/// live L1 pair, filtering each chunk once for every lane that replays
/// it (the builder of a memoized run, or one unmemoized lane group).
#[derive(Debug)]
pub struct FrontEnd<'a> {
    stream: TraceStream<'a>,
    l1: L1Pair,
    /// References filtered so far. Doubles as the timestamp handed to the
    /// L1 — any monotone stamp works, because L1 decisions and statistics
    /// are time-independent (timestamps land only in cold metadata that
    /// never reaches a report).
    filtered: u64,
}

impl<'a> FrontEnd<'a> {
    /// A front end filtering `stream` with `cfg`'s L1 pair.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if an L1 geometry is inconsistent
    /// (the same validation [`System::new`] applies).
    pub fn over(stream: TraceStream<'a>, cfg: &SystemConfig) -> Result<Self, BuildSystemError> {
        let l1 = L1Pair::new(
            cfg.l1i_geometry()?,
            cfg.l1d_geometry()?,
            ReplacementPolicy::Lru,
        );
        Ok(FrontEnd {
            stream,
            l1,
            filtered: 0,
        })
    }

    /// The shared L1 pair (adopted by every lane before `finish`).
    pub fn l1(&self) -> &L1Pair {
        &self.l1
    }

    /// The L1 pair, consuming the front end.
    pub(crate) fn into_l1(self) -> L1Pair {
        self.l1
    }

    /// Pulls the next chunk of the stream, filters at most `limit` of
    /// its references through the shared L1 into `out`, and returns the
    /// number of references filtered.
    ///
    /// `out` is reused across calls (its event buffer keeps its
    /// allocation). The cut at `limit` is what keeps the front end's L1
    /// statistics exact for runs that end mid-chunk.
    pub fn fill_next(&mut self, limit: usize, out: &mut FilteredChunk) -> usize {
        let chunk = self.stream.next_chunk();
        let n = chunk.len().min(limit);
        out.events.clear();
        let mut gap = 0u32;
        for access in &chunk[..n] {
            let outcome = self.l1.filter(access, self.filtered);
            self.filtered += 1;
            match outcome.demand {
                Some(demand) => {
                    out.events.push(LaneEvent {
                        gap,
                        demand,
                        writeback: outcome.writeback,
                    });
                    gap = 0;
                }
                None => gap += 1,
            }
        }
        out.refs = n as u32;
        out.tail = gap;
        FRONT_END_REFS.fetch_add(n as u64, Ordering::Relaxed);
        n
    }
}

/// Replays one filtered chunk into a design lane: O(1) retires over the
/// hit gaps, one L2 interaction per event, all at the lane's own clock.
fn replay(sys: &mut System, chunk: &FilteredChunk) {
    for ev in &chunk.events {
        sys.retire_hits(u64::from(ev.gap));
        sys.step_filtered(Some(&ev.demand), ev.writeback.as_ref());
    }
    sys.retire_hits(u64::from(chunk.tail));
    // Mirrors `System::run_batch`: one counter bump per lane per chunk,
    // so the drained telemetry totals match the scalar engines exactly.
    if telemetry::enabled() {
        telemetry::add("sim_batches", 1);
        telemetry::add("sim_refs", u64::from(chunk.refs));
    }
}

/// One design lane of an [`execute`]d plan that ran to completion.
#[derive(Debug, Clone)]
pub struct Point {
    /// The lane's report, byte-identical to a scalar run of its design.
    pub report: SimReport,
    /// Wall-clock nanoseconds spent replaying and finishing this lane
    /// (the shared front end is excluded — no single lane owns it).
    pub wall_ns: u64,
}

/// A set of L2 designs to run over one `(app, seed)` stream for `refs`
/// references: the input of [`execute`].
///
/// # Examples
///
/// ```
/// use moca_core::L2Design;
/// use moca_sim::lockstep::{execute, Plan};
/// use moca_sim::parallel::Jobs;
/// use moca_trace::AppProfile;
///
/// let app = AppProfile::music();
/// let designs = [L2Design::baseline(), L2Design::static_default()];
/// let points = execute(&Plan::new(&app, 1, 30_000, &designs), Jobs::SERIAL, None)
///     .expect("no cancel token");
/// // Byte-identical to the scalar oracle:
/// let solo = moca_sim::run_app(&app, designs[1], 30_000, 1);
/// let report = &points[1].as_ref().expect("valid design").report;
/// assert_eq!(format!("{report:?}"), format!("{solo:?}"));
/// ```
#[derive(Debug, Clone)]
pub struct Plan<'a> {
    app: &'a AppProfile,
    seed: u64,
    refs: usize,
    designs: &'a [L2Design],
    cfg: SystemConfig,
    lane_group: usize,
    /// The memo lane groups replay filtered runs from; `None` filters
    /// the stream once per lane group.
    memo: Option<&'a RunMemo>,
    /// Absolute plan indices forced to panic at the start of their
    /// replay (fault-injection hook for the isolation suites).
    injected_faults: Vec<usize>,
}

impl<'a> Plan<'a> {
    /// A plan running every design over `refs` references of the
    /// `(app, seed)` stream, with the default [`SystemConfig`],
    /// [`LANE_GROUP`] lanes per front end and the global [`RunMemo`].
    pub fn new(app: &'a AppProfile, seed: u64, refs: usize, designs: &'a [L2Design]) -> Self {
        Plan {
            app,
            seed,
            refs,
            designs,
            cfg: SystemConfig::default(),
            lane_group: LANE_GROUP,
            memo: Some(RunMemo::global()),
            injected_faults: Vec::new(),
        }
    }

    /// Replaces the system configuration used for every lane.
    pub fn with_config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the number of lanes sharing one front end (minimum 1).
    ///
    /// Width 1 disables front-end sharing entirely — each design pays
    /// its own replay of the stream — which is the contrast the
    /// `lockstep/lane-group-width` benchmark measures.
    pub fn with_lane_group(mut self, width: usize) -> Self {
        self.lane_group = width.max(1);
        self
    }

    /// Filters the stream once per lane group instead of replaying the
    /// memoized run: every group decodes or generates and filters its
    /// own chunks, and no memo is read or filled.
    ///
    /// For runs whose stream no later consumer reads again, where
    /// caching the run would only hold memory. Reports are unchanged.
    pub fn unmemoized(mut self) -> Self {
        self.memo = None;
        self
    }

    /// Replays filtered runs from `memo` instead of the global one
    /// (tests, benchmarks).
    pub fn with_memo(mut self, memo: &'a RunMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Injects deterministic mid-run faults: each listed plan index
    /// panics (`"injected fault at index {i}"`) at the start of its
    /// lane's replay, and fails in its own slot. Used by the
    /// fault-isolation suites; production callers never set this.
    pub fn with_injected_faults(mut self, faults: &[usize]) -> Self {
        self.injected_faults = faults.to_vec();
        self
    }

    /// The lanes `start..end` of the plan, one lane group after another.
    fn run_span(
        &self,
        start: usize,
        end: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<Result<Point, SweepPointError>>, Cancelled> {
        let mut out = Vec::with_capacity(end - start);
        for offset in (start..end).step_by(self.lane_group) {
            out.extend(self.run_group(offset, (offset + self.lane_group).min(end), cancel)?);
        }
        Ok(out)
    }

    /// One lane group over plan indices `start..end`: build the lanes,
    /// replay the filtered run (polling `cancel` once per chunk), finish.
    /// A lane that fails to build, or panics while replaying or
    /// finishing, fails in its own slot; every other lane keeps going.
    fn run_group(
        &self,
        start: usize,
        end: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<Result<Point, SweepPointError>>, Cancelled> {
        let failed = |index: usize, cause: PointCause| SweepPointError {
            index,
            label: self.designs[index].label(),
            cause,
        };
        // Each lane is its system, or the error it failed with (the
        // system is then dropped). Systems stay unboxed: boxing them
        // raised the matrix run's peak RSS by ~0.3 MiB.
        let mut lanes: Vec<Result<System, SweepPointError>> = (start..end)
            .map(|index| {
                match catch_panic(|| System::new(self.app.name, self.designs[index], self.cfg)) {
                    Ok(built) => built.map_err(|e| failed(index, PointCause::Build(e))),
                    Err(msg) => Err(failed(index, PointCause::Panic(msg))),
                }
            })
            .collect();
        let mut walls = vec![0u64; lanes.len()];

        let mut replayed = None;
        if lanes.iter().any(Result::is_ok) {
            // At least one lane built, so the L1 geometries are valid.
            // Shared front-end time (memo lookup, or the filter pass) is
            // attributed to every lane of the group — it is wait time
            // each of them experienced.
            let mut first = true;
            replayed = Some(self.replay_run(cancel, |chunk| {
                for ((index, lane), wall) in (start..).zip(&mut lanes).zip(&mut walls) {
                    let Ok(sys) = lane else {
                        continue;
                    };
                    let trip = first && self.injected_faults.contains(&index);
                    let began = Instant::now();
                    let outcome = catch_panic(|| {
                        if trip {
                            panic!("injected fault at index {index}");
                        }
                        replay(sys, chunk);
                    });
                    *wall += began.elapsed().as_nanos() as u64;
                    if let Err(msg) = outcome {
                        // The panicked lane's state is unspecified;
                        // replacing it drops the system for good.
                        *lane = Err(failed(index, PointCause::Panic(msg)));
                    }
                }
                first = false;
            })?);
        }

        let total = self.designs.len();
        Ok((start..)
            .zip(lanes)
            .zip(walls)
            .map(|((index, lane), wall)| {
                let mut sys = lane?;
                let Replayed { l1, front_ns } = replayed.as_ref().expect("live lanes replayed");
                sys.adopt_l1(l1);
                let began = Instant::now();
                let report = catch_panic(move || sys.finish())
                    .map_err(|msg| failed(index, PointCause::Panic(msg)))?;
                let energy_ns = began.elapsed().as_nanos() as u64;
                if telemetry::enabled() {
                    telemetry::record(Event::point(
                        &report.app,
                        &report.design,
                        index,
                        total,
                        *front_ns,
                        wall,
                        energy_ns,
                    ));
                }
                Ok(Point {
                    report,
                    wall_ns: wall + energy_ns,
                })
            })
            .collect())
    }

    /// The filtered run of the plan's stream, from the memo or filtered
    /// live, fed chunk by chunk to `visit`.
    fn replay_run(
        &self,
        cancel: Option<&CancelToken>,
        visit: impl FnMut(&FilteredChunk),
    ) -> Result<Replayed, Cancelled> {
        match self.memo {
            Some(memo) => memo.replay(self.app, self.seed, &self.cfg, self.refs, cancel, visit),
            None => replay_unmemoized(self.app, self.seed, &self.cfg, self.refs, cancel, visit),
        }
    }
}

/// Runs every design of `plan` and returns one outcome per design, in
/// plan order: the lane's [`Point`], or the [`SweepPointError`] of a
/// lane that failed to build or panicked.
///
/// The designs are split into contiguous spans, one per worker of
/// `jobs`, each span running as consecutive lane groups that share one
/// front end. Every outcome is independent of that split: reports are
/// byte-identical to a scalar [`run_app`](crate::workloads::run_app)
/// of each design, failures carry their absolute plan index, and the
/// telemetry `point` event of each completed lane carries the same
/// index for every job count.
///
/// # Errors
///
/// Returns [`Cancelled`] if `cancel` tripped before the last lane group
/// finished; `cancel` is polled once per filtered chunk of every lane
/// group, and nothing partial is observable.
pub fn execute(
    plan: &Plan<'_>,
    jobs: Jobs,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Result<Point, SweepPointError>>, Cancelled> {
    let total = plan.designs.len();
    // One contiguous span per worker; the input-order merge of
    // `parallel_map` restores plan order.
    let per_span = total.div_ceil(jobs.get().min(total).max(1)).max(1);
    let starts: Vec<usize> = (0..total).step_by(per_span).collect();
    let mut out = Vec::with_capacity(total);
    for span in parallel_map(jobs, starts, |start| {
        plan.run_span(start, (start + per_span).min(total), cancel)
    }) {
        out.extend(span?);
    }
    Ok(out)
}

/// The chunk-broadcast reference engine: one shared stream, each
/// design re-filtering every chunk through its own scalar
/// [`System::run_batch`] loop, under the default [`SystemConfig`].
///
/// Production runs go through [`execute`]; this path is the middle
/// reference of the cross-engine differential harness (scalar
/// [`run_app`](crate::workloads::run_app) ≡ broadcast ≡ lock-step) and
/// of the `sweep-fanout/8-designs-100k` benchmark.
///
/// # Panics
///
/// Panics if any design is invalid.
pub fn run_broadcast(
    app: &AppProfile,
    seed: u64,
    designs: &[L2Design],
    refs: usize,
) -> Vec<SimReport> {
    let mut systems: Vec<System> = designs
        .iter()
        .map(|design| {
            System::new(app.name, *design, SystemConfig::default())
                .expect("reference designs must be valid")
        })
        .collect();
    if !systems.is_empty() {
        let mut stream = TraceStream::new(app, seed);
        let mut left = refs;
        while left > 0 {
            let chunk = stream.next_chunk();
            let n = chunk.len().min(left);
            for sys in &mut systems {
                sys.run_batch(&chunk[..n]);
            }
            left -= n;
        }
    }
    systems.into_iter().map(System::finish).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_app;

    fn pool() -> Vec<L2Design> {
        vec![
            L2Design::baseline(),
            L2Design::static_default(),
            L2Design::dynamic_default(),
            L2Design::SharedSram { ways: 4 },
            L2Design::SharedSram { ways: 12 },
        ]
    }

    /// The reports of a plan every design of which is valid.
    fn reports(plan: &Plan<'_>, jobs: Jobs) -> Vec<SimReport> {
        execute(plan, jobs, None)
            .expect("no cancel token")
            .into_iter()
            .map(|p| p.expect("valid design").report)
            .collect()
    }

    #[test]
    fn lockstep_matches_scalar_oracle() {
        let app = AppProfile::game();
        let designs = pool();
        let refs = 20_011; // not chunk-aligned
        let got = reports(&Plan::new(&app, 3, refs, &designs), Jobs::SERIAL);
        for (design, got) in designs.iter().zip(&got) {
            let want = run_app(&app, *design, refs, 3);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn lane_group_width_and_jobs_do_not_change_reports() {
        let app = AppProfile::browser();
        let designs = pool();
        let reference = reports(&Plan::new(&app, 7, 15_000, &designs), Jobs::SERIAL);
        for width in [1usize, 2, 3, 8, 64] {
            for jobs in [1usize, 2, 3, 8] {
                let plan = Plan::new(&app, 7, 15_000, &designs).with_lane_group(width);
                let got = reports(&plan, Jobs::new(jobs));
                assert_eq!(got.len(), reference.len());
                for (g, r) in got.iter().zip(&reference) {
                    assert_eq!(
                        format!("{g:?}"),
                        format!("{r:?}"),
                        "width={width} jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_plan_produces_no_points() {
        let app = AppProfile::music();
        let points = execute(&Plan::new(&app, 1, 50_000, &[]), Jobs::new(4), None);
        assert!(points.expect("no cancel token").is_empty());
    }

    #[test]
    fn filtered_chunk_accounts_every_reference() {
        let app = AppProfile::music();
        let cfg = SystemConfig::default();
        let mut front = FrontEnd::over(TraceStream::new(&app, 1), &cfg).expect("valid");
        let mut chunk = FilteredChunk::default();
        let n = front.fill_next(5_000, &mut chunk);
        assert_eq!(n, 5_000);
        assert_eq!(chunk.refs(), 5_000);
        let events = chunk.events().len();
        let gaps: usize = chunk.events().iter().map(|e| e.gap as usize).sum();
        assert!(events > 0, "a cold L1 must miss");
        assert_eq!(events + gaps + chunk.tail_gap(), 5_000);
    }

    #[test]
    fn injected_fault_poisons_only_its_own_lane() {
        let app = AppProfile::video();
        let designs = pool();
        let outcomes = execute(
            &Plan::new(&app, 5, 12_000, &designs).with_injected_faults(&[2]),
            Jobs::SERIAL,
            None,
        )
        .expect("no cancel token");
        let clean = reports(&Plan::new(&app, 5, 12_000, &designs), Jobs::SERIAL);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let e = outcome.as_ref().expect_err("injected fault must fail");
                assert_eq!(e.index, 2);
                assert!(e.to_string().contains("injected fault at index 2"), "{e}");
            } else {
                let point = outcome.as_ref().expect("other lanes survive");
                assert_eq!(format!("{:?}", point.report), format!("{:?}", clean[i]));
            }
        }
    }

    #[test]
    fn failures_report_absolute_indices() {
        let app = AppProfile::email();
        let designs = [
            L2Design::baseline(),
            L2Design::baseline(),
            L2Design::SharedSram { ways: 0 },
            L2Design::baseline(),
        ];
        for jobs in [1usize, 2, 4] {
            let plan = Plan::new(&app, 1, 3_000, &designs).with_lane_group(1);
            let outcomes = execute(&plan, Jobs::new(jobs), None).expect("no cancel token");
            let e = outcomes[2].as_ref().expect_err("ways=0 is invalid");
            assert_eq!(e.index, 2, "jobs={jobs}");
            assert!(matches!(e.cause, PointCause::Build(_)));
            assert!(outcomes
                .iter()
                .enumerate()
                .all(|(i, o)| o.is_ok() == (i != 2)));
        }
    }
}
