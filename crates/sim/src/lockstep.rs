//! Lock-step multi-design kernel: K designs advance through the same
//! trace reference together, sharing one L1 front end per lane group.
//!
//! The fan-out engine (see [`crate::fanout`]) already generates the
//! trace once per sweep, but it still *simulates* scalar: every design
//! re-filters every reference through its own L1 pair and retires it
//! through its own core loop, even though the L1 configuration is
//! identical across the sweep. This module flips the loop order and
//! removes that multiplier:
//!
//! * **Shared front end** ([`FrontEnd`]): the L1 filter decision is
//!   *time-independent* — replacement state ([`moca_cache`] LRU) never
//!   reads the access timestamp, so hit/miss, victim choice, and the
//!   demand/writeback requests produced for a reference are a pure
//!   function of the access sequence, not of any design's clock. One
//!   front end therefore filters each chunk once per lane group and
//!   every design lane replays the same [`FilteredChunk`].
//! * **Event replay** ([`LockStep`]): a lane only touches its L2 at the
//!   L2-visible events of the chunk. The (dominant) runs of pure L1
//!   hits between events are retired in O(1) by the closed-form
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
//! at the same per-lane cycles with the same requests. The cross-engine
//! differential suites (`crates/sim/tests/lockstep_differential.rs`,
//! `lockstep_props.rs`) pin this against both the scalar oracle and the
//! retained broadcast engine ([`crate::fanout::FanOut::run_broadcast`]).

use std::time::Instant;

use moca_cache::{L1Pair, L2Request, ReplacementPolicy};
use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::cancel::{CancelToken, Cancelled};
use crate::config::SystemConfig;
use crate::error::{PointCause, SweepPointError};
use crate::fanout::TraceStream;
use crate::metrics::SimReport;
use crate::parallel::catch_panic;
use crate::system::{BuildSystemError, System};
use crate::telemetry::{self, Event};

/// Default number of design lanes sharing one front-end filter pass.
///
/// Eight matches the widest sweeps in the experiment suite; pools larger
/// than the width run as consecutive lane groups, each with its own
/// front end over the (arena-memoized) stream.
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
}

/// The shared front end of one lane group: the `(app, seed)` trace
/// stream plus one live L1 pair, filtering each chunk once for all
/// lanes.
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
    /// A front end over the `(app, seed)` stream with `cfg`'s L1 pair.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if an L1 geometry is inconsistent
    /// (the same validation [`System::new`] applies).
    pub fn new(
        app: &'a AppProfile,
        seed: u64,
        cfg: &SystemConfig,
    ) -> Result<Self, BuildSystemError> {
        Self::over(TraceStream::new(app, seed), cfg)
    }

    /// A front end filtering an explicit stream (for example an
    /// [`unmemoized`](TraceStream::unmemoized) one) with `cfg`'s L1
    /// pair.
    ///
    /// # Errors
    ///
    /// Returns [`BuildSystemError`] if an L1 geometry is inconsistent.
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

    /// Pulls the next chunk of the stream, filters at most `limit` of
    /// its references through the shared L1 into `out`, and returns the
    /// number of references filtered.
    ///
    /// `out` is reused across calls (its event buffer keeps its
    /// allocation). The cut at `limit` is what keeps the front end's L1
    /// statistics exact for runs that end mid-chunk.
    pub fn fill_next(&mut self, limit: usize, out: &mut FilteredChunk) -> usize {
        let chunk = self.stream.next_slice();
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

/// Per-lane execution state inside [`LockStep::run_timed_isolated_span`].
enum LaneSlot {
    /// Still simulating: the system plus its accumulated wall time.
    Live(Box<System>, u64),
    /// Failed at build time or mid-replay; the system was dropped.
    Failed(SweepPointError),
}

/// The lock-step runner: one `(app, seed)` stream, K design lanes per
/// front end.
///
/// Most callers reach this engine through the [`crate::fanout::FanOut`]
/// entry points (every sweep, sweep-shaped experiment, and `repro` run
/// routes here); the type is public for the differential suites and the
/// lane-group-width benchmarks.
///
/// # Examples
///
/// ```
/// use moca_core::L2Design;
/// use moca_sim::lockstep::LockStep;
/// use moca_trace::AppProfile;
///
/// let app = AppProfile::music();
/// let designs = [L2Design::baseline(), L2Design::static_default()];
/// let reports = LockStep::new(&app, 1).run(&designs, 30_000);
/// // Byte-identical to the scalar oracle:
/// let solo = moca_sim::run_app(&app, designs[1], 30_000, 1);
/// assert_eq!(format!("{:?}", reports[1]), format!("{solo:?}"));
/// ```
#[derive(Debug, Clone)]
pub struct LockStep<'a> {
    app: &'a AppProfile,
    seed: u64,
    cfg: SystemConfig,
    lane_group: usize,
    /// Whether front ends read through the global
    /// [`ChunkArena`](crate::fanout::ChunkArena).
    memoize: bool,
    /// Absolute sweep indices forced to panic at the start of their
    /// replay (fault-injection hook for the isolation suites).
    injected_faults: Vec<usize>,
}

impl<'a> LockStep<'a> {
    /// A lock-step runner over the `(app, seed)` stream with the default
    /// [`SystemConfig`] and [`LANE_GROUP`] lanes per front end.
    pub fn new(app: &'a AppProfile, seed: u64) -> Self {
        LockStep {
            app,
            seed,
            cfg: SystemConfig::default(),
            lane_group: LANE_GROUP,
            memoize: true,
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
    /// its own filter pass — which is the contrast the
    /// `lockstep/lane-group-width` benchmark measures.
    pub fn with_lane_group(mut self, width: usize) -> Self {
        self.lane_group = width.max(1);
        self
    }

    /// Reads the stream without the global chunk arena: every lane
    /// group's front end decodes or generates its own chunks (see
    /// [`TraceStream::unmemoized`]) and the arena is left untouched.
    ///
    /// For runs whose stream no later consumer will read again, where
    /// memoizing would only fill the arena. Reports are unchanged.
    pub fn unmemoized(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// The front end of one lane group.
    fn front_end(&self) -> Result<FrontEnd<'a>, BuildSystemError> {
        let stream = if self.memoize {
            TraceStream::new(self.app, self.seed)
        } else {
            TraceStream::unmemoized(self.app, self.seed)
        };
        FrontEnd::over(stream, &self.cfg)
    }

    /// Injects deterministic mid-run faults: each listed absolute sweep
    /// index panics (`"injected fault at index {i}"`) at the start of its
    /// lane's replay. Only [`LockStep::run_timed_isolated_span`] survives
    /// an injected fault; the non-isolated paths propagate the panic.
    pub fn with_injected_faults(mut self, faults: &[usize]) -> Self {
        self.injected_faults = faults.to_vec();
        self
    }

    /// Runs `refs` references through one lane per design and returns
    /// the reports in design order.
    ///
    /// # Panics
    ///
    /// Panics if any design is invalid (callers construct designs from
    /// validated enums, matching [`crate::workloads::run_app`]).
    pub fn run(&self, designs: &[L2Design], refs: usize) -> Vec<SimReport> {
        self.run_timed_span(designs, refs, 0, designs.len())
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    /// [`LockStep::run`] returning `(report, wall_ns)` pairs over one
    /// contiguous slice of a larger sweep: `offset` is the slice's
    /// position in sweep order and `total` the full sweep size, so
    /// telemetry `point` events carry stable indices for any
    /// partitioning of the designs over workers or lane groups.
    pub fn run_timed_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
    ) -> Vec<(SimReport, u64)> {
        let mut out = Vec::with_capacity(designs.len());
        for (g, lanes) in designs.chunks(self.lane_group).enumerate() {
            out.extend(
                self.run_group(lanes, refs, offset + g * self.lane_group, total, None)
                    .expect("uncancellable run cannot be cancelled"),
            );
        }
        out
    }

    /// [`LockStep::run_timed_span`] with cooperative cancellation: the
    /// token is polled once per front-end chunk of every lane group, so
    /// abort latency is bounded by one chunk of replay per group.
    ///
    /// Determinism is untouched — a run that completes returns exactly
    /// the bytes the uncancellable path would have returned, and a
    /// cancelled run returns [`Cancelled`] with nothing partial
    /// observable.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if `cancel` tripped before the last lane
    /// group finished.
    pub fn try_run_timed_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<(SimReport, u64)>, Cancelled> {
        let mut out = Vec::with_capacity(designs.len());
        for (g, lanes) in designs.chunks(self.lane_group).enumerate() {
            out.extend(self.run_group(
                lanes,
                refs,
                offset + g * self.lane_group,
                total,
                Some(cancel),
            )?);
        }
        Ok(out)
    }

    /// One lane group: build the lanes, stream-filter-replay, finish.
    /// `cancel` (when given) is polled at every chunk boundary.
    fn run_group(
        &self,
        lanes: &[L2Design],
        refs: usize,
        offset: usize,
        total: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<(SimReport, u64)>, Cancelled> {
        let mut systems: Vec<System> = lanes
            .iter()
            .map(|design| {
                System::new(self.app.name, *design, self.cfg).expect("fan-out design must be valid")
            })
            .collect();
        let mut walls = vec![0u64; systems.len()];
        // Shared front-end time for this group: generation (or arena
        // lookup) plus the single L1 filter pass. Attributed to every
        // lane of the group — it is wait time each of them experienced.
        let mut gen_ns = 0u64;
        // The lane builds above validated the L1 geometries already.
        let mut front = self.front_end().expect("lane builds validated the config");
        let mut chunk = FilteredChunk::default();
        let mut left = refs;
        while left > 0 {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(Cancelled);
            }
            let start = Instant::now();
            let n = front.fill_next(left, &mut chunk);
            gen_ns += start.elapsed().as_nanos() as u64;
            for (sys, wall) in systems.iter_mut().zip(&mut walls) {
                let start = Instant::now();
                replay(sys, &chunk);
                *wall += start.elapsed().as_nanos() as u64;
            }
            left -= n;
        }
        Ok(systems
            .into_iter()
            .zip(walls)
            .enumerate()
            .map(|(i, (mut sys, wall))| {
                sys.adopt_l1(front.l1());
                let start = Instant::now();
                let report = sys.finish();
                let energy_ns = start.elapsed().as_nanos() as u64;
                if telemetry::enabled() {
                    telemetry::record(Event::point(
                        &report.app,
                        &report.design,
                        offset + i,
                        total,
                        gen_ns,
                        wall,
                        energy_ns,
                    ));
                }
                (report, wall + energy_ns)
            })
            .collect())
    }

    /// [`LockStep::run_timed_span`] with per-lane failure isolation: a
    /// design that fails to build, or panics at any point of its replay,
    /// yields `Err(SweepPointError)` in its slot — carrying its
    /// **absolute** sweep index `offset + lane` — while every other lane
    /// of the group keeps replaying the shared front end's chunks.
    ///
    /// Failure values are deterministic (build errors are pure functions
    /// of the design; panics in a deterministic replay carry a
    /// deterministic payload), so the failed-point set is identical for
    /// any grouping of the designs over workers or lane groups.
    pub fn run_timed_isolated_span(
        &self,
        designs: &[L2Design],
        refs: usize,
        offset: usize,
    ) -> Vec<Result<(SimReport, u64), SweepPointError>> {
        let mut out = Vec::with_capacity(designs.len());
        for (g, lanes) in designs.chunks(self.lane_group).enumerate() {
            out.extend(self.run_group_isolated(lanes, refs, offset + g * self.lane_group));
        }
        out
    }

    /// One isolated lane group; `offset` is the absolute sweep index of
    /// the group's first lane.
    fn run_group_isolated(
        &self,
        lanes: &[L2Design],
        refs: usize,
        offset: usize,
    ) -> Vec<Result<(SimReport, u64), SweepPointError>> {
        let mut slots: Vec<LaneSlot> = lanes
            .iter()
            .enumerate()
            .map(|(lane, design)| {
                match catch_panic(|| System::new(self.app.name, *design, self.cfg)) {
                    Ok(Ok(sys)) => LaneSlot::Live(Box::new(sys), 0),
                    Ok(Err(e)) => LaneSlot::Failed(SweepPointError {
                        index: offset + lane,
                        label: design.label(),
                        cause: PointCause::Build(e),
                    }),
                    Err(msg) => LaneSlot::Failed(SweepPointError {
                        index: offset + lane,
                        label: design.label(),
                        cause: PointCause::Panic(msg),
                    }),
                }
            })
            .collect();

        let mut front = None;
        if slots.iter().any(|s| matches!(s, LaneSlot::Live(..))) {
            // At least one lane built, so the L1 geometries are valid.
            front = Some(self.front_end().expect("a lane build validated the config"));
            let front = front.as_mut().expect("just installed");
            let mut chunk = FilteredChunk::default();
            let mut first = true;
            let mut left = refs;
            while left > 0 {
                let n = front.fill_next(left, &mut chunk);
                for (lane, slot) in slots.iter_mut().enumerate() {
                    let failure = match slot {
                        LaneSlot::Live(sys, wall) => {
                            let index = offset + lane;
                            let trip = first && self.injected_faults.contains(&index);
                            let start = Instant::now();
                            let outcome = catch_panic(|| {
                                if trip {
                                    panic!("injected fault at index {index}");
                                }
                                replay(sys, &chunk);
                            });
                            *wall += start.elapsed().as_nanos() as u64;
                            outcome.err()
                        }
                        LaneSlot::Failed(_) => None,
                    };
                    if let Some(msg) = failure {
                        // The panicked lane's state is unspecified;
                        // replacing the slot drops it for good.
                        *slot = LaneSlot::Failed(SweepPointError {
                            index: offset + lane,
                            label: lanes[lane].label(),
                            cause: PointCause::Panic(msg),
                        });
                    }
                }
                first = false;
                left -= n;
            }
        }

        slots
            .into_iter()
            .enumerate()
            .map(|(lane, slot)| match slot {
                LaneSlot::Live(mut sys, wall) => {
                    if let Some(front) = &front {
                        sys.adopt_l1(front.l1());
                    }
                    let start = Instant::now();
                    match catch_panic(move || sys.finish()) {
                        Ok(report) => Ok((report, wall + start.elapsed().as_nanos() as u64)),
                        Err(msg) => Err(SweepPointError {
                            index: offset + lane,
                            label: lanes[lane].label(),
                            cause: PointCause::Panic(msg),
                        }),
                    }
                }
                LaneSlot::Failed(e) => Err(e),
            })
            .collect()
    }
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

    #[test]
    fn lockstep_matches_scalar_oracle() {
        let app = AppProfile::game();
        let designs = pool();
        let refs = 20_011; // not chunk-aligned
        let reports = LockStep::new(&app, 3).run(&designs, refs);
        for (design, got) in designs.iter().zip(&reports) {
            let want = run_app(&app, *design, refs, 3);
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    #[test]
    fn lane_group_width_does_not_change_reports() {
        let app = AppProfile::browser();
        let designs = pool();
        let reference = LockStep::new(&app, 7).run(&designs, 15_000);
        for width in [1usize, 2, 3, 8, 64] {
            let got = LockStep::new(&app, 7)
                .with_lane_group(width)
                .run(&designs, 15_000);
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(format!("{g:?}"), format!("{r:?}"), "width={width}");
            }
        }
    }

    #[test]
    fn filtered_chunk_accounts_every_reference() {
        let app = AppProfile::music();
        let cfg = SystemConfig::default();
        let mut front = FrontEnd::new(&app, 1, &cfg).expect("valid");
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
        let outcomes = LockStep::new(&app, 5)
            .with_injected_faults(&[2])
            .run_timed_isolated_span(&designs, 12_000, 0);
        let clean = LockStep::new(&app, 5).run(&designs, 12_000);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let e = outcome.as_ref().expect_err("injected fault must fail");
                assert_eq!(e.index, 2);
                assert!(e.to_string().contains("injected fault at index 2"), "{e}");
            } else {
                let (report, _) = outcome.as_ref().expect("other lanes survive");
                assert_eq!(format!("{report:?}"), format!("{:?}", clean[i]));
            }
        }
    }

    #[test]
    fn isolated_span_reports_absolute_indices() {
        let app = AppProfile::email();
        let designs = [L2Design::SharedSram { ways: 0 }, L2Design::baseline()];
        let outcomes = LockStep::new(&app, 1).run_timed_isolated_span(&designs, 3_000, 10);
        let e = outcomes[0].as_ref().expect_err("ways=0 is invalid");
        assert_eq!(e.index, 10);
        assert!(matches!(e.cause, PointCause::Build(_)));
        assert!(outcomes[1].is_ok());
    }
}
