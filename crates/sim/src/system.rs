//! The full system: core + L1 pair + L2 design + DRAM.

use moca_cache::stats::CacheStats;
use moca_cache::{L1Pair, L2Request};
use moca_core::{DesignError, HybridStats, L2BaseParams, L2Design, L2Engine, MobileL2, CLOCK_GHZ};
use moca_trace::{MemoryAccess, Mode, TraceGenerator};

use crate::config::{
    SystemConfig, BASE_CYCLES_PER_REF, DRAM_LATENCY_CYCLES, DRAM_READ_ENERGY, DRAM_WRITE_ENERGY,
    L1D_GEOMETRY, L1I_GEOMETRY,
};
use crate::cpu::InOrderCore;
use crate::metrics::SimReport;

/// A trace-driven mobile system simulation.
///
/// # Examples
///
/// ```
/// use moca_core::L2Design;
/// use moca_sim::{System, SystemConfig};
/// use moca_trace::{AppProfile, TraceGenerator};
///
/// let mut sys = System::new("demo", L2Design::baseline(), SystemConfig::default())?;
/// let trace = TraceGenerator::new(&AppProfile::music(), 1).take(50_000);
/// sys.run(trace);
/// let report = sys.finish();
/// assert_eq!(report.refs, 50_000);
/// assert!(report.cycles > 0);
/// # Ok::<(), moca_core::DesignError>(())
/// ```
#[derive(Debug, Clone)]
pub struct System {
    core: InOrderCore,
    l1: L1Pair,
    design: L2Design,
    l2: L2Engine,
    /// The front end's L1 statistics, once a lane adopts them; `finish`
    /// reads them instead of the (then unused) live pair's.
    adopted_l1: Option<CacheStats>,
    app: String,
}

impl System {
    /// Assembles a system running `design` as the L2.
    ///
    /// # Errors
    ///
    /// Returns [`DesignError`] if the design is invalid.
    pub fn new(
        app: impl Into<String>,
        design: L2Design,
        cfg: SystemConfig,
    ) -> Result<Self, DesignError> {
        let params = L2BaseParams {
            next_line_prefetch: cfg.l2_next_line_prefetch,
            ..L2BaseParams::default()
        };
        let l2 = L2Engine::new(design, params)?;
        Ok(Self {
            core: InOrderCore::new(BASE_CYCLES_PER_REF),
            l1: L1Pair::from_geometries(L1I_GEOMETRY, L1D_GEOMETRY),
            design,
            l2,
            adopted_l1: None,
            app: app.into(),
        })
    }

    /// Cycles elapsed so far.
    pub fn cycles(&self) -> u64 {
        self.core.cycle()
    }

    /// Processes one reference: the L1 filter, then `step_filtered` on
    /// its demand/writeback pair.
    pub fn step(&mut self, access: &MemoryAccess) {
        let outcome = self.l1.access(access);
        self.step_filtered(outcome.demand.as_ref(), outcome.writeback.as_ref());
    }

    /// Advances time by `cycles` without issuing references (an idle
    /// period). The L2 keeps leaking (and, for volatile STT segments,
    /// expiring/refreshing) during the gap.
    pub fn idle(&mut self, cycles: u64) {
        self.core.idle(cycles);
    }

    /// Retires `n` references known to be pure L1 hits (no L2 traffic),
    /// in O(1) via [`InOrderCore::retire_many`].
    ///
    /// Exactly equivalent to `n` [`System::step`] calls whose accesses
    /// all hit the L1: a hit touches neither the L2 nor the DRAM, and
    /// its zero-stall retire is what `retire_many` batches. The lock-step
    /// engine uses this for the gaps between L2-visible events; the L1
    /// state itself lives in the shared front end (see
    /// [`System::adopt_l1`]).
    pub(crate) fn retire_hits(&mut self, n: u64) {
        self.core.retire_many(n);
    }

    /// Processes one reference whose L1 outcome was already computed,
    /// by [`System::step`] or by a shared front end.
    ///
    /// The demand/writeback pair is exactly what [`L1Pair::access`]
    /// returned for this access, and the L1 keeps no timestamps (its
    /// decisions depend only on the reference order), so issuing the
    /// requests at this lane's *own* `now` reproduces the scalar run bit
    /// for bit.
    // Forced inline: with `step` as a second caller the compiler stops
    // inlining it into the lane replay loop, which then measured 4-7%
    // slower end to end on the matrix experiments.
    #[inline(always)]
    pub(crate) fn step_filtered(
        &mut self,
        demand: Option<&L2Request>,
        writeback: Option<&L2Request>,
    ) {
        let now = self.core.cycle();
        let mut stall = 0u64;
        if let Some(demand) = demand {
            let resp = self.l2.request(demand, now);
            let dram_cycles = if resp.dram_read {
                DRAM_LATENCY_CYCLES
            } else {
                0
            };
            stall = resp.latency_cycles + dram_cycles;
        }
        if let Some(wb) = writeback {
            // Writebacks are off the critical path: they cost energy and
            // may evict, but do not stall the core.
            self.l2.request(wb, now);
        }
        self.core.retire(stall);
    }

    /// Adopts the shared front end's L1 statistics (see
    /// [`L1Pair::stats`]) so [`System::finish`] reports the same L1
    /// statistics a scalar run would.
    ///
    /// They are identical by construction: the front end filtered exactly
    /// this system's reference stream, and the L1 keeps no timestamps.
    pub(crate) fn adopt_l1(&mut self, stats: CacheStats) {
        self.adopted_l1 = Some(stats);
    }

    /// Runs an entire trace (or any iterator of references).
    ///
    /// The scalar reference path for arbitrary access sequences, used by
    /// tests and examples; experiments run their designs through
    /// [`crate::lockstep::execute`], co-scheduled mixes included. For
    /// references coming out of a [`TraceGenerator`], prefer
    /// [`System::run_generated`], which streams chunked batches through a
    /// reused buffer instead of pulling one access at a time.
    pub fn run<I>(&mut self, trace: I) -> u64
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let mut n = 0u64;
        for a in trace {
            self.step(&a);
            n += 1;
        }
        n
    }

    /// Processes a contiguous batch of references: one [`System::step`]
    /// per access, staged by [`System::run_generated`] in a reused
    /// buffer (see [`TraceGenerator::fill`]).
    fn run_batch(&mut self, batch: &[MemoryAccess]) -> u64 {
        for a in batch {
            self.step(a);
        }
        // One enabled-check per ~8192-access batch; the disabled path
        // costs a single predictable branch, no allocation.
        if crate::telemetry::enabled() {
            crate::telemetry::add("sim_batches", 1);
            crate::telemetry::add("sim_refs", batch.len() as u64);
        }
        batch.len() as u64
    }

    /// Runs exactly `refs` references drawn from `gen`, staged through an
    /// internal reused chunk buffer.
    ///
    /// Produces the same simulation state as `run(gen.take(refs))` — the
    /// first `refs` accesses of the stream are processed in order — but
    /// without per-access iterator overhead. The generator may be left
    /// advanced by up to one chunk beyond `refs`.
    pub fn run_generated(&mut self, gen: &mut TraceGenerator, refs: usize) -> u64 {
        let mut chunk = Vec::with_capacity(TraceGenerator::DEFAULT_CHUNK.min(refs.max(1)));
        let mut left = refs;
        while left > 0 {
            let n = gen.fill(&mut chunk).min(left);
            self.run_batch(&chunk[..n]);
            left -= n;
        }
        refs as u64
    }

    /// Finalizes accounting and produces the report.
    pub fn finish(mut self) -> SimReport {
        let end = self.core.cycle();
        self.l2.finalize(end);

        let l1_stats = self.adopted_l1.unwrap_or_else(|| self.l1.stats());
        let traffic = self.l2.traffic();
        let dram_energy =
            DRAM_READ_ENERGY * traffic.dram_reads + DRAM_WRITE_ENERGY * traffic.dram_writes;

        // Expiry, prefetches, allocation and segment behaviour are
        // recorded by the way-partitioned engine only.
        let (mobile, hybrid) = match &self.l2 {
            L2Engine::Mobile(l2) => (Some(l2), HybridStats::default()),
            L2Engine::SetPartitioned(_) => (None, HybridStats::default()),
            L2Engine::Hybrid(l2) => (None, l2.hybrid_stats()),
        };
        let final_active_ways = mobile.map_or(self.design.physical_ways(), MobileL2::active_ways);
        let timeline = mobile.map_or_else(Vec::new, |l2| l2.timeline().to_vec());
        let mean_active_ways = if timeline.is_empty() || end == 0 {
            f64::from(final_active_ways)
        } else {
            let mut weighted = 0.0f64;
            for (i, s) in timeline.iter().enumerate() {
                let until = timeline.get(i + 1).map_or(end, |n| n.cycle);
                let span = until.saturating_sub(s.cycle) as f64;
                weighted += span * f64::from(s.user_ways + s.kernel_ways);
            }
            weighted / end as f64
        };

        SimReport {
            design: self.design.label(),
            app: self.app.clone(),
            refs: self.core.refs(),
            cycles: end,
            clock_ghz: CLOCK_GHZ,
            l1_stats,
            l2_stats: self.l2.stats(),
            l2_energy: self.l2.energy(),
            dram_energy,
            traffic,
            expiry: mobile.map(MobileL2::expiry_stats).unwrap_or_default(),
            prefetches: mobile.map_or(0, MobileL2::prefetches),
            final_active_ways,
            mean_active_ways,
            timeline,
            behavior: mobile.map_or_else(Default::default, |l2| {
                [
                    l2.behavior(Mode::User).clone(),
                    l2.behavior(Mode::Kernel).clone(),
                ]
            }),
            hybrid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_trace::{AppProfile, TraceGenerator};

    fn small_run(design: L2Design, refs: usize) -> SimReport {
        let mut sys = System::new("music", design, SystemConfig::default()).expect("valid");
        let trace = TraceGenerator::new(&AppProfile::music(), 9).take(refs);
        sys.run(trace);
        sys.finish()
    }

    #[test]
    fn baseline_run_produces_sane_report() {
        let r = small_run(L2Design::baseline(), 100_000);
        assert_eq!(r.refs, 100_000);
        assert!(r.cycles > r.refs, "base CPI is 1.5 plus stalls");
        assert!(r.l1_stats.accesses() == 100_000);
        assert!(r.l2_stats.accesses() > 0, "L1 misses must reach L2");
        assert!(r.l2_stats.accesses() < 100_000, "L1 must filter traffic");
        assert!(r.l2_energy.total().nj() > 0.0);
        assert!(r.dram_energy.nj() > 0.0);
        assert_eq!(r.final_active_ways, 16);
        assert!((r.mean_active_ways - 16.0).abs() < 1e-9);
    }

    #[test]
    fn misses_slow_the_core_down() {
        // A 1-way tiny partition thrashes; CPR must exceed baseline's.
        let base = small_run(L2Design::baseline(), 60_000);
        let tiny = small_run(
            L2Design::StaticSram {
                user_ways: 1,
                kernel_ways: 1,
            },
            60_000,
        );
        assert!(
            tiny.cpr() > base.cpr(),
            "thrashing L2 must cost cycles ({} vs {})",
            tiny.cpr(),
            base.cpr()
        );
        assert!(tiny.slowdown_vs(&base) > 1.0);
    }

    #[test]
    fn l2_request_timestamps_are_monotonic() {
        // Implicitly validated by MobileL2 (expiry math assumes it); here
        // we just make sure a long run completes without panicking.
        let r = small_run(L2Design::static_default(), 50_000);
        assert!(r.cycles > 0);
    }

    #[test]
    fn dynamic_design_reports_timeline() {
        let design = L2Design::DynamicStt {
            max_ways: 16,
            min_ways: 1,
            user_retention: moca_energy::RetentionClass::OneSecond,
            kernel_retention: moca_energy::RetentionClass::TenMillis,
            refresh: moca_core::RefreshPolicy::InvalidateOnExpiry,
            epoch_cycles: 50_000,
        };
        let r = small_run(design, 200_000);
        assert!(!r.timeline.is_empty());
        assert!(r.mean_active_ways > 0.0 && r.mean_active_ways <= 16.0);
    }

    #[test]
    fn behavior_populates_reports() {
        let mut sys = System::new("email", L2Design::static_default(), SystemConfig::default())
            .expect("valid");
        let trace = TraceGenerator::new(&AppProfile::email(), 3).take(150_000);
        sys.run(trace);
        let r = sys.finish();
        assert!(r.behavior(Mode::User).reuse.total() > 0);
        assert!(r.behavior(Mode::Kernel).reuse.total() > 0);
    }

    #[test]
    fn run_generated_matches_iterator_run() {
        let app = AppProfile::music();
        // Deliberately not a multiple of the chunk size.
        let refs = 70_001usize;

        let mut by_iter =
            System::new("music", L2Design::baseline(), SystemConfig::default()).expect("valid");
        by_iter.run(TraceGenerator::new(&app, 9).take(refs));
        let a = by_iter.finish();

        let mut by_batch =
            System::new("music", L2Design::baseline(), SystemConfig::default()).expect("valid");
        let mut gen = TraceGenerator::new(&app, 9);
        assert_eq!(by_batch.run_generated(&mut gen, refs), refs as u64);
        let b = by_batch.finish();

        assert_eq!(a.refs, b.refs);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1_stats, b.l1_stats);
        assert_eq!(a.l2_stats, b.l2_stats);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn build_error_reports_bad_design() {
        let err = System::new(
            "x",
            L2Design::SharedSram { ways: 0 },
            SystemConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DesignError::ZeroWays(_)), "{err}");
    }
}
