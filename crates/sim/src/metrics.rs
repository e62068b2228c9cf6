//! Simulation result reporting.

use moca_cache::stats::CacheStats;
use moca_core::{AllocationSample, ExpiryStats, HybridStats, SegmentBehavior, TrafficCounters};
use moca_energy::{Energy, EnergyBreakdown, Time};
use moca_trace::Mode;

/// Everything measured by one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Design label (see [`moca_core::L2Design::label`]).
    pub design: String,
    /// Workload (app) name.
    pub app: String,
    /// References simulated.
    pub refs: u64,
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Core clock in GHz (to convert cycles to seconds).
    pub clock_ghz: f64,
    /// Combined L1I + L1D statistics.
    pub l1_stats: CacheStats,
    /// L2 statistics.
    pub l2_stats: CacheStats,
    /// L2 energy breakdown.
    pub l2_energy: EnergyBreakdown,
    /// DRAM energy (reads + writes of lines).
    pub dram_energy: Energy,
    /// DRAM traffic.
    pub traffic: TrafficCounters,
    /// Retention-expiry statistics (zero for SRAM designs).
    pub expiry: ExpiryStats,
    /// Prefetch fills issued by the L2 (zero unless the next-line
    /// prefetcher is enabled).
    pub prefetches: u64,
    /// Powered L2 ways at the end of the run.
    pub final_active_ways: u32,
    /// Time-weighted average of powered L2 ways.
    pub mean_active_ways: f64,
    /// Allocation history (dynamic designs).
    pub timeline: Vec<AllocationSample>,
    /// Per-mode segment behaviour, recorded on every run. Reuse and
    /// write intervals are recorded on L2 hits only, so under a
    /// retention design a write to an expired block starts a new block
    /// instead of adding a write interval.
    pub behavior: [SegmentBehavior; 2],
    /// The hybrid engine's placement counters (zero for other designs).
    pub hybrid: HybridStats,
}

impl SimReport {
    /// Wall-clock duration of the run.
    pub fn duration(&self) -> Time {
        Time::from_cycles(self.cycles, self.clock_ghz)
    }

    /// Cycles per reference.
    pub fn cpr(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.cycles as f64 / self.refs as f64
        }
    }

    /// References per cycle (the IPC analogue of a reference trace).
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.refs as f64 / self.cycles as f64
        }
    }

    /// L2 miss rate over all L2 accesses (prefetch fills included; they
    /// always count as misses).
    pub fn l2_miss_rate(&self) -> f64 {
        self.l2_stats.miss_rate()
    }

    /// L2 miss rate over *demand* accesses only (prefetch fills factored
    /// out) — the metric to compare prefetching configurations with.
    pub fn l2_demand_miss_rate(&self) -> f64 {
        let accesses = self.l2_stats.accesses().saturating_sub(self.prefetches);
        let misses = self.l2_stats.misses().saturating_sub(self.prefetches);
        if accesses == 0 {
            0.0
        } else {
            misses as f64 / accesses as f64
        }
    }

    /// Kernel share of L2 requests.
    pub fn l2_kernel_share(&self) -> f64 {
        self.l2_stats.kernel_share()
    }

    /// L2 energy total.
    pub fn l2_energy_total(&self) -> Energy {
        self.l2_energy.total()
    }

    /// Performance relative to a baseline run
    /// (`> 1.0` means this run is slower).
    pub fn slowdown_vs(&self, baseline: &SimReport) -> f64 {
        self.cpr() / baseline.cpr()
    }

    /// L2 energy relative to a baseline run.
    pub fn energy_ratio_vs(&self, baseline: &SimReport) -> f64 {
        self.l2_energy.normalized_to(&baseline.l2_energy)
    }

    /// Behaviour record for one mode.
    pub fn behavior(&self, mode: Mode) -> &SegmentBehavior {
        &self.behavior[mode.index()]
    }
}

/// Geometric mean of a sequence of positive ratios.
///
/// Returns `None` for an empty sequence or any non-positive value.
pub fn geometric_mean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean<I: IntoIterator<Item = f64>>(values: I) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cycles: u64, refs: u64, leak_nj: f64) -> SimReport {
        let mut e = EnergyBreakdown::new();
        e.leakage = Energy::from_nj(leak_nj);
        SimReport {
            design: "test".into(),
            app: "app".into(),
            refs,
            cycles,
            clock_ghz: 1.0,
            l1_stats: CacheStats::new(),
            l2_stats: CacheStats::new(),
            l2_energy: e,
            dram_energy: Energy::ZERO,
            traffic: TrafficCounters::default(),
            expiry: ExpiryStats::default(),
            prefetches: 0,
            final_active_ways: 16,
            mean_active_ways: 16.0,
            timeline: Vec::new(),
            behavior: [SegmentBehavior::new(), SegmentBehavior::new()],
            hybrid: HybridStats::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = dummy(3000, 1000, 100.0);
        assert!((r.cpr() - 3.0).abs() < 1e-12);
        assert!((r.throughput() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.duration().ns(), 3000.0);
    }

    #[test]
    fn comparisons_against_baseline() {
        let base = dummy(2000, 1000, 100.0);
        let slow = dummy(3000, 1000, 25.0);
        assert!((slow.slowdown_vs(&base) - 1.5).abs() < 1e-12);
        assert!((slow.energy_ratio_vs(&base) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean([2.0, 8.0]), Some(4.0));
        assert_eq!(geometric_mean(std::iter::empty()), None);
        assert_eq!(geometric_mean([1.0, -1.0]), None);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean([1.0, 3.0]), Some(2.0));
        assert_eq!(mean(std::iter::empty()), None);
    }

    #[test]
    fn empty_run_rates_are_zero() {
        let r = dummy(0, 0, 0.0);
        assert_eq!(r.cpr(), 0.0);
        assert_eq!(r.throughput(), 0.0);
    }
}
