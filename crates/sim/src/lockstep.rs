//! The sweep executor: every set of L2 designs run over one trace
//! stream — one app's `(app, seed)` stream, or a co-scheduled mix's
//! (see [`crate::stream`]) — goes through [`execute`], on a lock-step
//! multi-design kernel where K designs replay the same L1-filtered run
//! of the stream, each at its own clock.
//!
//! A [`Plan`] names the stream's source and seed, the reference count,
//! the designs and the lanes' [`SystemConfig`]. [`execute`] obtains the
//! plan's filtered run once, then hands the designs to workers one lane
//! at a time: each lane builds its own L2, replays the whole run,
//! adopts the L1 statistics after it and finishes, so at most one L2 per
//! worker is live. A lane's build error or panic lands in that lane's
//! own slot while the other lanes keep going, and each completed lane
//! emits a telemetry `point` event.
//!
//! The kernel removes the per-design front-end multiplier:
//!
//! * **Shared front end** ([`FrontEnd`]): the L1 filter decision is
//!   *time-independent* — the LRU [`moca_cache::L1Pair`] takes no
//!   timestamp, so hit/miss, victim choice, and the demand/writeback
//!   requests produced for a reference are a pure function of the
//!   access sequence, not of any design's clock. Every plan has the same
//!   L1 pair (T1's, a constant of [`crate::config`]), and the
//!   configuration a plan sets reaches only its L2 lanes. One
//!   front end therefore filters each chunk once and every design lane
//!   replays the same [`FilteredChunk`]. The filtered run itself comes
//!   from the process-wide [`RunMemo`], so every lane (and every other
//!   consumer) of one stream shares a single front-end pass; an
//!   [`unmemoized`](Plan::unmemoized) plan of several designs shares
//!   one pass through a private run that lives only as long as the plan
//!   runs.
//! * **Event replay**: a lane only touches its L2 at the L2-visible
//!   events of the chunk. The (dominant) runs of pure L1 hits between
//!   events are retired in O(1) by the closed-form
//!   [`crate::cpu::InOrderCore::retire_many`], at each lane's *own*
//!   local time — so per-design timestamps, stalls, leakage windows and
//!   expiry decisions are bit-identical to a scalar run.
//!
//! Replay is lane-major: one lane replays every chunk of the run before
//! the next lane starts, so its L2 stays resident in the host cache
//! while it replays instead of several L2s evicting each other every
//! chunk.
//!
//! # Determinism
//!
//! Every report is **byte-identical** to a sequential
//! [`run_app`](crate::workloads::run_app) of the same design (for a mix,
//! to a [`System::run`] over its `MultiProgrammed` stream): the L1
//! counts are the front end's (identical by construction, adopted into
//! each lane before [`System::finish`]); the L2/DRAM interactions happen
//! at the same per-lane cycles with the same requests. Failures are
//! deterministic too (build errors are pure functions of the design;
//! panics in a deterministic replay carry a deterministic payload), so
//! the failed-point set is identical for any number of workers. The
//! differential suites (`crates/sim/tests/lockstep_differential.rs`,
//! `lockstep_props.rs`) pin this against the scalar oracle.

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use moca_cache::stats::CacheStats;
use moca_cache::{L1Pair, L2Cause, L2Request};
use moca_core::L2Design;
use moca_trace::{AccessKind, AppProfile, Mode};

use crate::config::{SystemConfig, L1D_GEOMETRY, L1I_GEOMETRY};
use crate::error::{PointCause, SweepPointError};
use crate::memo::{FilteredRun, RunMemo};
use crate::metrics::SimReport;
use crate::parallel::{catch_panic, parallel_map, Jobs};
use crate::stream::{Mix, Source, TraceStream, STREAM_CHUNK};
use crate::system::System;
use crate::telemetry::{self, Event, Kind};

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

/// Bits of an event tag holding the hit gap. A gap never exceeds one
/// chunk, so the bits above it are free for the requests' flags.
const GAP_BITS: u32 = 23;
const GAP_MASK: u32 = (1 << GAP_BITS) - 1;
/// Shift of the demand request's [`request_bits`] within a tag.
const DEMAND_SHIFT: u32 = GAP_BITS;
/// Shift of the writeback request's [`request_bits`] within a tag.
const WRITEBACK_SHIFT: u32 = GAP_BITS + 4;
/// Tag bit set when the event carries a writeback.
const HAS_WRITEBACK: u32 = 1 << 31;
const _: () = assert!(STREAM_CHUNK <= GAP_MASK as usize);

/// Every field of `req` except its line, in four bits: the cause (two
/// bits), the kernel mode bit and the write bit.
fn request_bits(req: &L2Request) -> u32 {
    let cause = match req.cause {
        L2Cause::Demand(AccessKind::InstrFetch) => 0,
        L2Cause::Demand(AccessKind::Load) => 1,
        L2Cause::Demand(AccessKind::Store) => 2,
        L2Cause::Writeback => 3,
    };
    cause | u32::from(req.mode == Mode::Kernel) << 2 | u32::from(req.write) << 3
}

/// The request [`request_bits`] encoded, at `line` (bits above the low
/// four are ignored).
fn request(line: u64, bits: u32) -> L2Request {
    L2Request {
        line,
        write: bits & 8 != 0,
        mode: if bits & 4 != 0 {
            Mode::Kernel
        } else {
            Mode::User
        },
        cause: match bits & 3 {
            0 => L2Cause::Demand(AccessKind::InstrFetch),
            1 => L2Cause::Demand(AccessKind::Load),
            2 => L2Cause::Demand(AccessKind::Store),
            _ => L2Cause::Writeback,
        },
    }
}

/// One chunk of the shared stream after L1 filtering: the L2-visible
/// events in order, plus the trailing run of hits.
///
/// Events are stored packed, 12 bytes each plus 8 per writeback: the
/// demand line, and a `u32` tag holding the hit gap in its low bits and
/// both requests' flags above it. Writeback lines sit in a sidecar, in
/// event order. [`FilteredChunk::events`] decodes them losslessly.
#[derive(Debug, Default)]
pub struct FilteredChunk {
    refs: u32,
    tail: u32,
    /// The demand line of each event.
    lines: Vec<u64>,
    /// Each event's hit gap and request flags.
    tags: Vec<u32>,
    /// The writeback line of each event that carries one.
    writebacks: Vec<u64>,
}

impl FilteredChunk {
    /// References this chunk represents (events + every gap + tail).
    pub fn refs(&self) -> usize {
        self.refs as usize
    }

    /// The L2-visible events, in reference order.
    pub fn events(&self) -> impl Iterator<Item = LaneEvent> + '_ {
        let mut writebacks = self.writebacks.iter();
        self.lines
            .iter()
            .zip(&self.tags)
            .map(move |(&line, &tag)| LaneEvent {
                gap: tag & GAP_MASK,
                demand: request(line, tag >> DEMAND_SHIFT),
                writeback: if tag & HAS_WRITEBACK == 0 {
                    None
                } else {
                    // The sidecar holds one line per flagged event.
                    writebacks
                        .next()
                        .map(|&wb| request(wb, tag >> WRITEBACK_SHIFT))
                },
            })
    }

    /// Pure-L1-hit references after the last event.
    pub fn tail_gap(&self) -> usize {
        self.tail as usize
    }

    /// Appends `event`, whose gap must fit [`GAP_BITS`].
    fn push(&mut self, event: &LaneEvent) {
        debug_assert!(event.gap <= GAP_MASK);
        let mut tag = event.gap | request_bits(&event.demand) << DEMAND_SHIFT;
        if let Some(wb) = &event.writeback {
            tag |= HAS_WRITEBACK | request_bits(wb) << WRITEBACK_SHIFT;
            self.writebacks.push(wb.line);
        }
        self.lines.push(event.demand.line);
        self.tags.push(tag);
    }

    /// A copy whose buffers hold exactly its events, for storing.
    pub(crate) fn to_owned_exact(&self) -> Self {
        FilteredChunk {
            refs: self.refs,
            tail: self.tail,
            lines: self.lines.to_vec(),
            tags: self.tags.to_vec(),
            writebacks: self.writebacks.to_vec(),
        }
    }

    /// Heap bytes held by the packed event buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.lines.capacity() * size_of::<u64>()
            + self.tags.capacity() * size_of::<u32>()
            + self.writebacks.capacity() * size_of::<u64>()
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

/// The shared L1 front end: one trace stream plus one live L1 pair,
/// filtering each chunk once for every lane that replays it (a run
/// being built, or the one lane of an unmemoized one-design plan, which
/// filters live).
#[derive(Debug)]
pub struct FrontEnd<'a> {
    stream: TraceStream<'a>,
    l1: L1Pair,
}

impl<'a> FrontEnd<'a> {
    /// A front end filtering `stream` with a cold T1 L1 pair.
    pub fn over(stream: TraceStream<'a>) -> Self {
        FrontEnd {
            stream,
            l1: L1Pair::from_geometries(L1I_GEOMETRY, L1D_GEOMETRY),
        }
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
        out.lines.clear();
        out.tags.clear();
        out.writebacks.clear();
        let mut gap = 0u32;
        for access in &chunk[..n] {
            let outcome = self.l1.access(access);
            match outcome.demand {
                Some(demand) => {
                    out.push(&LaneEvent {
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

    /// Filters the next `refs` references chunk by chunk, handing each
    /// filtered chunk to `visit`, and returns the L1 pair's statistics
    /// after them plus the nanoseconds spent filtering (visits excluded).
    pub(crate) fn filter(
        mut self,
        mut refs: usize,
        mut visit: impl FnMut(&FilteredChunk),
    ) -> (CacheStats, u64) {
        let mut chunk = FilteredChunk::default();
        let mut front_ns = 0;
        while refs > 0 {
            let began = Instant::now();
            refs -= self.fill_next(refs, &mut chunk);
            front_ns += began.elapsed().as_nanos() as u64;
            visit(&chunk);
        }
        (self.l1.stats(), front_ns)
    }
}

/// Replays one filtered chunk into a design lane, decoding its events
/// as it goes: O(1) retires over the hit gaps, one L2 interaction per
/// event, all at the lane's own clock.
fn replay(sys: &mut System, chunk: &FilteredChunk) {
    for ev in chunk.events() {
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
    /// Wall-clock nanoseconds spent decoding and replaying this lane's
    /// chunks and finishing it (the shared front end is excluded — no
    /// single lane owns it).
    pub wall_ns: u64,
}

/// A lane that ran to completion, with its timings split by layer.
struct Lane {
    report: SimReport,
    /// Decoding and replaying the lane's chunks.
    sim_ns: u64,
    /// Inside `System::finish`.
    energy_ns: u64,
    /// Filtering the stream live (a lane without a run only).
    front_ns: u64,
}

/// A set of L2 designs to run over one trace stream for `refs`
/// references: the input of [`execute`].
///
/// The stream is one app's ([`Plan::new`]) or a co-scheduled mix's
/// ([`Plan::mix`]), at a seed. Each lane's system is named after the
/// source: the app's name, or the mix's (`browser+music`).
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
/// let points = execute(&Plan::new(&app, 1, 30_000, &designs), Jobs::SERIAL);
/// // Byte-identical to the scalar oracle:
/// let solo = moca_sim::run_app(&app, designs[1], 30_000, 1);
/// let report = &points[1].as_ref().expect("valid design").report;
/// assert_eq!(format!("{report:?}"), format!("{solo:?}"));
/// ```
#[derive(Debug, Clone)]
pub struct Plan<'a> {
    source: Source<'a>,
    seed: u64,
    refs: usize,
    designs: &'a [L2Design],
    cfg: SystemConfig,
    /// The memo the plan's filtered run comes from; `None` keeps the
    /// run private to the plan.
    memo: Option<&'a RunMemo>,
    /// Absolute plan indices forced to panic at the start of their
    /// replay (fault-injection hook for the isolation suites).
    injected_faults: Vec<usize>,
}

impl<'a> Plan<'a> {
    /// A plan running every design over `refs` references of the
    /// `(app, seed)` stream, with the default [`SystemConfig`] and the
    /// global [`RunMemo`].
    pub fn new(app: &'a AppProfile, seed: u64, refs: usize, designs: &'a [L2Design]) -> Self {
        Self::over(Source::App(app), seed, refs, designs)
    }

    /// A plan running every design over `refs` references of the
    /// co-scheduled `mix`'s stream at `seed`, with the default
    /// [`SystemConfig`] and the global [`RunMemo`].
    pub fn mix(mix: &'a Mix, seed: u64, refs: usize, designs: &'a [L2Design]) -> Self {
        Self::over(Source::Mix(mix), seed, refs, designs)
    }

    fn over(source: Source<'a>, seed: u64, refs: usize, designs: &'a [L2Design]) -> Self {
        Plan {
            source,
            seed,
            refs,
            designs,
            cfg: SystemConfig::default(),
            memo: Some(RunMemo::global()),
            injected_faults: Vec::new(),
        }
    }

    /// Replaces the system configuration used for every lane.
    pub fn with_config(mut self, cfg: SystemConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Keeps the plan's filtered run out of every memo: it lives only
    /// while [`execute`] runs the plan. A plan of several designs
    /// filters its stream once, into a private run every lane replays
    /// and that is dropped when [`execute`] returns; the one lane of a
    /// one-design plan filters the stream live, chunk by chunk, and
    /// holds no run at all.
    ///
    /// For streams no later consumer reads again, where caching the run
    /// would only hold memory. Reports are unchanged.
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

    /// `true` when the lane of plan index `index` passes the check
    /// [`System::new`] makes: its design validates.
    fn can_build(&self, index: usize) -> bool {
        self.designs[index].validate().is_ok()
    }

    /// A fresh cursor over the plan's stream.
    fn stream(&self) -> TraceStream<'a> {
        TraceStream::of(self.source, self.seed)
    }

    /// The plan's filtered run: the memo's (a hit, or a build), a
    /// private run for an unmemoized plan of several designs, or `None`
    /// for an unmemoized one-design plan, whose lane filters live.
    fn run(&self) -> Option<Arc<FilteredRun>> {
        match self.memo {
            Some(memo) => Some(memo.obtain(self.stream(), self.refs)),
            None if self.designs.len() > 1 => {
                let run = FilteredRun::filter(self.stream(), self.refs, |_| {});
                Some(Arc::new(run))
            }
            None => None,
        }
    }

    /// The lane of plan index `index`: build its system, replay every
    /// chunk of `run` into it (or, without a run, filter the plan's
    /// stream live), adopt the L1 statistics after the run, finish.
    ///
    /// A lane that fails to build, or panics while replaying or
    /// finishing, fails in its own slot.
    fn run_lane(&self, index: usize, run: Option<&FilteredRun>) -> Result<Lane, SweepPointError> {
        let failed = |cause: PointCause| SweepPointError {
            index,
            label: self.designs[index].label(),
            cause,
        };
        let panicked = |msg: String| failed(PointCause::Panic(msg));
        let built = catch_panic(|| System::new(self.source.name(), self.designs[index], self.cfg));
        let mut sys = built
            .map_err(panicked)?
            .map_err(|e| failed(PointCause::Build(e)))?;
        let began = Instant::now();
        let replayed = catch_panic(|| {
            if self.injected_faults.contains(&index) {
                panic!("injected fault at index {index}");
            }
            let Some(run) = run else {
                let (l1, front_ns) =
                    FrontEnd::over(self.stream()).filter(self.refs, |c| replay(&mut sys, c));
                sys.adopt_l1(l1);
                return front_ns;
            };
            for chunk in &run.chunks {
                replay(&mut sys, chunk);
            }
            sys.adopt_l1(run.l1);
            0
        });
        let front_ns = replayed.map_err(panicked)?;
        let sim_ns = (began.elapsed().as_nanos() as u64).saturating_sub(front_ns);
        let began = Instant::now();
        let report = catch_panic(move || sys.finish()).map_err(panicked)?;
        Ok(Lane {
            report,
            sim_ns,
            energy_ns: began.elapsed().as_nanos() as u64,
            front_ns,
        })
    }
}

/// Runs every design of `plan` and returns one outcome per design, in
/// plan order: the lane's [`Point`], or the [`SweepPointError`] of a
/// lane that failed to build or panicked.
///
/// The plan's filtered run is obtained once, before any lane's L2 is
/// allocated, so the stream's generator and a run being built never
/// share peak memory with an L2; a plan none of whose lanes can build
/// obtains nothing. The lanes then go to the workers of `jobs` one at
/// a time, each replaying the whole run on its own. Every outcome is
/// independent of the job count: reports are byte-identical to a
/// scalar [`run_app`](crate::workloads::run_app) of each design,
/// failures carry their plan index, and the telemetry `point` events
/// are recorded after the lanes finish, in plan order.
pub fn execute(plan: &Plan<'_>, jobs: Jobs) -> Vec<Result<Point, SweepPointError>> {
    let total = plan.designs.len();
    let began = Instant::now();
    let run = (0..total)
        .any(|index| plan.can_build(index))
        .then(|| plan.run())
        .flatten();
    let obtain_ns = began.elapsed().as_nanos() as u64;
    let lanes = parallel_map(jobs, (0..total).collect(), |index| {
        plan.run_lane(index, run.as_deref())
    });
    // The plan's front-end time (obtaining its run, or a lane filtering
    // live) is charged once, to its first completed lane, so sums over
    // `point` events count it once.
    let live_ns: u64 = lanes.iter().flatten().map(|lane| lane.front_ns).sum();
    let mut front_ns = Some(obtain_ns + live_ns);
    (0..)
        .zip(lanes)
        .map(|(index, lane)| {
            let Lane {
                report,
                sim_ns,
                energy_ns,
                ..
            } = lane?;
            if telemetry::enabled() {
                telemetry::record(
                    Event::new(Kind::Point)
                        .str("app", &report.app)
                        // `L2Design::label`.
                        .str("design", &report.design)
                        // Plan-order index, stable across job counts.
                        .num("index", index)
                        .num("total", total as u64)
                        // Shared front end: obtaining the run and any
                        // live filtering; first completed lane only.
                        .num("trace_gen_ns", front_ns.take().unwrap_or(0))
                        // Decoding and replaying the lane's chunks.
                        .num("sim_ns", sim_ns)
                        // Inside `System::finish`.
                        .num("energy_ns", energy_ns),
                );
            }
            Ok(Point {
                report,
                wall_ns: sim_ns + energy_ns,
            })
        })
        .collect()
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
        execute(plan, jobs)
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
    fn jobs_do_not_change_reports() {
        let app = AppProfile::browser();
        let designs = pool();
        let reference = reports(&Plan::new(&app, 7, 15_000, &designs), Jobs::SERIAL);
        for jobs in [1usize, 2, 3, 8] {
            let got = reports(&Plan::new(&app, 7, 15_000, &designs), Jobs::new(jobs));
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(format!("{g:?}"), format!("{r:?}"), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn empty_plan_produces_no_points() {
        let app = AppProfile::music();
        let points = execute(&Plan::new(&app, 1, 50_000, &[]), Jobs::new(4));
        assert!(points.is_empty());
    }

    #[test]
    fn filtered_chunk_accounts_every_reference() {
        let app = AppProfile::music();
        let mut front = FrontEnd::over(TraceStream::new(&app, 1));
        let mut chunk = FilteredChunk::default();
        let n = front.fill_next(5_000, &mut chunk);
        assert_eq!(n, 5_000);
        assert_eq!(chunk.refs(), 5_000);
        let events = chunk.events().count();
        let gaps: usize = chunk.events().map(|e| e.gap as usize).sum();
        assert!(events > 0, "a cold L1 must miss");
        assert_eq!(events + gaps + chunk.tail_gap(), 5_000);
    }

    #[test]
    fn packed_events_round_trip_losslessly() {
        let causes = [
            L2Cause::Demand(AccessKind::InstrFetch),
            L2Cause::Demand(AccessKind::Load),
            L2Cause::Demand(AccessKind::Store),
            L2Cause::Writeback,
        ];
        let requests = |line: u64| {
            causes.into_iter().flat_map(move |cause| {
                Mode::ALL.into_iter().flat_map(move |mode| {
                    [false, true].map(|write| L2Request {
                        line,
                        write,
                        mode,
                        cause,
                    })
                })
            })
        };
        let lines = [0, u64::MAX, u64::MAX >> 6];
        let mut events = Vec::new();
        for gap in [0, STREAM_CHUNK as u32] {
            for &line in &lines {
                for demand in requests(line) {
                    events.push(LaneEvent {
                        gap,
                        demand,
                        writeback: None,
                    });
                    for &wb_line in &lines {
                        events.extend(requests(wb_line).map(|wb| LaneEvent {
                            gap,
                            demand,
                            writeback: Some(wb),
                        }));
                    }
                }
            }
        }
        let mut chunk = FilteredChunk::default();
        for event in &events {
            chunk.push(event);
        }
        assert!(chunk.events().eq(events.iter().copied()));
        // Packed: a line and a tag per event, a line per writeback.
        let writebacks = events.iter().filter(|e| e.writeback.is_some()).count();
        assert_eq!(
            chunk.to_owned_exact().heap_bytes(),
            events.len() * 12 + writebacks * 8
        );
    }

    /// Every run shape a lane replays: the global memo's cached run, a
    /// full memo's rejected key (a run built and handed back uncached),
    /// an unmemoized plan's private run, and an unmemoized one-design
    /// plan's live front end.
    #[test]
    fn injected_fault_poisons_only_its_own_lane() {
        let app = AppProfile::video();
        let designs = pool();
        let full = RunMemo::with_capacity(0);
        // Two chunks, so the live lane filters more than one.
        let base = Plan::new(&app, 5, 12_000, &designs).with_injected_faults(&[2]);
        let clean = reports(&Plan::new(&app, 5, 12_000, &designs), Jobs::SERIAL);
        for (shape, plan) in [
            ("cached", base.clone()),
            ("rejected", base.clone().with_memo(&full)),
            ("private", base.clone().unmemoized()),
        ] {
            for (i, outcome) in execute(&plan, Jobs::SERIAL).iter().enumerate() {
                if i == 2 {
                    let e = outcome.as_ref().expect_err("injected fault must fail");
                    assert_eq!(e.index, 2, "{shape}");
                    assert!(e.to_string().contains("injected fault at index 2"), "{e}");
                } else {
                    let point = outcome.as_ref().expect("other lanes survive");
                    let (got, want) = (&point.report, &clean[i]);
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{shape} lane {i}");
                }
            }
        }
        assert_eq!(full.stats().rejected, 1);

        // Live: a one-design plan of the faulted design fails in its
        // slot, and the same plan unfaulted equals the clean report.
        let live = Plan::new(&app, 5, 12_000, &designs[2..3]).unmemoized();
        let faulted = execute(&live.clone().with_injected_faults(&[0]), Jobs::SERIAL);
        let e = faulted[0].as_ref().expect_err("injected fault must fail");
        assert!(e.to_string().contains("injected fault at index 0"), "{e}");
        let got = &reports(&live, Jobs::SERIAL)[0];
        assert_eq!(format!("{got:?}"), format!("{:?}", clean[2]), "live");
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
            let outcomes = execute(&Plan::new(&app, 1, 3_000, &designs), Jobs::new(jobs));
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
