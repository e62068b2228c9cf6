//! The sweep executor: every set of L2 designs run over one
//! `(app, seed)` stream goes through [`execute`], on a lock-step
//! multi-design kernel where K designs replay the same L1-filtered run
//! of the stream, each at its own clock.
//!
//! A [`Plan`] names the stream, the reference count, the designs and
//! the system configuration; [`execute`] splits the designs into one
//! contiguous span per worker and runs each span as consecutive lane
//! groups. Every lane group does the same two things: it emits a
//! telemetry `point` event per completed lane, and puts each lane's
//! build error or panic in that lane's own slot while the other lanes
//! keep replaying.
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
//!   other consumer) of one stream shares a single front-end pass; an
//!   [`unmemoized`](Plan::unmemoized) plan of several lane groups
//!   shares one pass through a run that lives only as long as the plan
//!   runs.
//! * **Event replay**: a lane only touches its L2 at the L2-visible
//!   events of the chunk. The (dominant) runs of pure L1 hits between
//!   events are retired in O(1) by the closed-form
//!   [`crate::cpu::InOrderCore::retire_many`], at each lane's *own*
//!   local time — so per-design timestamps, stalls, leakage windows and
//!   expiry decisions are bit-identical to a scalar run.
//!
//! Lanes are laid out design-major: within a lane group the per-design
//! state (`System`s, wall clocks, failure slots) sits side-by-side in
//! flat arrays indexed by lane. Replay is lane-major: the run reaches
//! the group as windows of chunks (a cached run is one window), and each
//! lane replays a whole window before the next lane starts, so one
//! lane's L2 stays resident in the host cache while it replays instead
//! of the group's L2s evicting each other every chunk.
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

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use moca_cache::{L1Pair, L2Cause, L2Request, ReplacementPolicy};
use moca_core::L2Design;
use moca_trace::{AccessKind, AppProfile, Mode};

use crate::config::SystemConfig;
use crate::error::{PointCause, SweepPointError};
use crate::memo::{RunMemo, Source};
use crate::metrics::SimReport;
use crate::parallel::{catch_panic, parallel_map, Jobs};
use crate::stream::{TraceStream, STREAM_CHUNK};
use crate::system::{BuildSystemError, System};
use crate::telemetry::{self, Event, Kind};

/// Default number of design lanes in one lane group.
///
/// Pools larger than the width run as consecutive lane groups, all
/// replaying one filtered run of the stream, and within a group each
/// lane replays the run in turn; so the width only bounds how many L2s
/// are live at once, not how often the stream is filtered or how lanes
/// share the host cache.
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

/// The shared L1 front end: the `(app, seed)` trace stream plus one
/// live L1 pair, filtering each chunk once for every lane that replays
/// it (a run being built, or the one lane group of an unmemoized
/// plan, which filters live).
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
        out.lines.clear();
        out.tags.clear();
        out.writebacks.clear();
        let mut gap = 0u32;
        for access in &chunk[..n] {
            let outcome = self.l1.filter(access, self.filtered);
            self.filtered += 1;
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
/// let points = execute(&Plan::new(&app, 1, 30_000, &designs), Jobs::SERIAL);
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

    /// Sets the number of lanes in one lane group (minimum 1), which
    /// bounds how many L2s are live at once.
    ///
    /// Reports do not depend on it. Lanes replay a cached run one after
    /// another at any width, so it changes little but peak memory; over
    /// a live run, a wider group filters the stream fewer times.
    pub fn with_lane_group(mut self, width: usize) -> Self {
        self.lane_group = width.max(1);
        self
    }

    /// Keeps the plan's filtered run out of every memo: it lives only
    /// while [`execute`] runs the plan. A plan run as one lane group
    /// filters its stream live, chunk by chunk; a plan run as several
    /// filters it once, into a run all of its lane groups replay and
    /// drop with the plan.
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

    /// `true` when the lane of plan index `index` passes the checks
    /// [`System::new`] makes: its design and the L1 geometries.
    fn can_build(&self, index: usize) -> bool {
        self.designs[index].validate().is_ok()
            && self.cfg.l1i_geometry().is_ok()
            && self.cfg.l1d_geometry().is_ok()
    }

    /// The filtered run of the plan's stream: from `memo`, or filtered
    /// live (`None`).
    fn source<'m>(&self, memo: Option<&'m RunMemo>) -> Source<'m, 'a> {
        match memo {
            Some(memo) => memo.obtain(self.app, self.seed, &self.cfg, self.refs),
            None => Source::live(TraceStream::new(self.app, self.seed), &self.cfg, self.refs),
        }
    }

    /// One lane group over plan indices `start..end`: obtain the
    /// filtered run, build the lanes, replay the run, finish.
    ///
    /// The run is obtained before any lane's L2 is allocated, so a run
    /// being built (the stream's generator plus the growing run) never
    /// shares peak memory with the group's L2s. A group none of whose
    /// lanes can build obtains nothing.
    ///
    /// Replay is lane-major: for each window of the run (a cached run is
    /// one window), each live lane replays every chunk of the window
    /// before the next lane starts, so one lane's L2 stays resident in
    /// the host cache for the whole window. A lane that fails to build,
    /// or panics while replaying or finishing, fails in its own slot;
    /// every other lane keeps going.
    fn run_group(
        &self,
        start: usize,
        end: usize,
        memo: Option<&RunMemo>,
    ) -> Vec<Result<Point, SweepPointError>> {
        let failed = |index: usize, cause: PointCause| SweepPointError {
            index,
            label: self.designs[index].label(),
            cause,
        };
        let began = Instant::now();
        let run = (start..end)
            .any(|index| self.can_build(index))
            .then(|| self.source(memo));
        let obtain_ns = began.elapsed().as_nanos() as u64;
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

        // The group's shared front-end time (obtaining the run and any
        // live filtering) is charged once, to its first completed lane,
        // so sums over `point` events count it once.
        let mut front_ns = None;
        if lanes.iter().any(Result::is_ok) {
            // `can_build` mirrors `System::new`, so the run is in hand
            // whenever a lane built.
            let run = run.unwrap_or_else(|| self.source(memo));
            let mut first = true;
            let (l1, live_ns) = run.drain(|window| {
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
                        for chunk in window {
                            replay(sys, chunk);
                        }
                    });
                    *wall += began.elapsed().as_nanos() as u64;
                    if let Err(msg) = outcome {
                        // The panicked lane's state is unspecified;
                        // replacing it drops the system for good.
                        *lane = Err(failed(index, PointCause::Panic(msg)));
                    }
                }
                first = false;
            });
            lanes.iter_mut().flatten().for_each(|sys| sys.adopt_l1(&l1));
            front_ns = Some(obtain_ns + live_ns);
        }

        let total = self.designs.len();
        (start..)
            .zip(lanes)
            .zip(walls)
            .map(|((index, lane), wall)| {
                let sys = lane?;
                let began = Instant::now();
                let report = catch_panic(move || sys.finish())
                    .map_err(|msg| failed(index, PointCause::Panic(msg)))?;
                let energy_ns = began.elapsed().as_nanos() as u64;
                if telemetry::enabled() {
                    telemetry::record(
                        Event::new(Kind::Point)
                            .str("app", &report.app)
                            // `L2Design::label`.
                            .str("design", &report.design)
                            // Plan-order index, stable across job counts.
                            .num("index", index as u64)
                            .num("total", total as u64)
                            // Shared front end: obtaining the run and any
                            // live filtering; first completed lane only.
                            .num("trace_gen_ns", front_ns.take().unwrap_or(0))
                            // Decoding and replaying the lane's chunks.
                            .num("sim_ns", wall)
                            // Inside `System::finish`.
                            .num("energy_ns", energy_ns),
                    );
                }
                Ok(Point {
                    report,
                    wall_ns: wall + energy_ns,
                })
            })
            .collect()
    }
}

/// Runs every design of `plan` and returns one outcome per design, in
/// plan order: the lane's [`Point`], or the [`SweepPointError`] of a
/// lane that failed to build or panicked.
///
/// The designs are split into contiguous spans, one per worker of
/// `jobs`, each span running as consecutive lane groups that replay
/// one filtered run. Every outcome is independent of that split:
/// reports are byte-identical to a scalar
/// [`run_app`](crate::workloads::run_app) of each design, failures
/// carry their absolute plan index, and the telemetry `point` event of
/// each completed lane carries the same index for every job count.
pub fn execute(plan: &Plan<'_>, jobs: Jobs) -> Vec<Result<Point, SweepPointError>> {
    let total = plan.designs.len();
    // One contiguous span per worker; the input-order merge of
    // `parallel_map` restores plan order.
    let per_span = total.div_ceil(jobs.get().min(total).max(1)).max(1);
    let starts: Vec<usize> = (0..total).step_by(per_span).collect();
    let groups: usize = starts
        .iter()
        .map(|&start| ((start + per_span).min(total) - start).div_ceil(plan.lane_group))
        .sum();
    // An unmemoized plan replayed by several lane groups filters its
    // stream once, into an unbounded memo that dies with this call; its
    // spans share that one build as concurrent consumers of one key.
    let scoped = (plan.memo.is_none() && groups > 1).then(|| RunMemo::with_capacity(usize::MAX));
    let memo = plan.memo.or(scoped.as_ref());
    // Each span runs as consecutive lane groups.
    parallel_map(jobs, starts, |start| {
        let end = (start + per_span).min(total);
        (start..end)
            .step_by(plan.lane_group)
            .flat_map(|group| plan.run_group(group, (group + plan.lane_group).min(end), memo))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
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
        let points = execute(&Plan::new(&app, 1, 50_000, &[]), Jobs::new(4));
        assert!(points.is_empty());
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

    /// Every window shape a lane group replays: the global memo's cached
    /// run (one window), a full memo's rejected key (one window per
    /// chunk, filtered live), and an unmemoized one-group plan (live).
    #[test]
    fn injected_fault_poisons_only_its_own_lane() {
        let app = AppProfile::video();
        let designs = pool();
        let full = RunMemo::with_capacity(0);
        // One lane group over two chunks: live plans replay two windows.
        let base = Plan::new(&app, 5, 12_000, &designs).with_injected_faults(&[2]);
        let clean = reports(&Plan::new(&app, 5, 12_000, &designs), Jobs::SERIAL);
        for (shape, plan) in [
            ("cached", base.clone()),
            ("rejected", base.clone().with_memo(&full)),
            ("live", base.clone().unmemoized()),
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
            let outcomes = execute(&plan, Jobs::new(jobs));
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
