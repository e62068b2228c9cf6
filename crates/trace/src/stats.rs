//! Trace-level statistics.
//!
//! [`TraceStats`] summarizes a reference stream without simulating any
//! cache: per-mode access mix, footprints, mode-switch behaviour, and a
//! log-bucketed reuse-interval histogram per mode. The latter is the
//! trace-level counterpart of the paper's segment-behaviour analysis
//! (claim C4): kernel lines are re-touched on very different time scales
//! than user lines.

use crate::access::{MemoryAccess, Mode};
use crate::fxhash::FxHashMap;

#[cfg(test)]
use crate::access::AccessKind;

/// Number of log2 buckets in reuse-interval histograms
/// (bucket `i` counts reuses with `2^i <= interval < 2^(i+1)`).
pub const REUSE_BUCKETS: usize = 32;

/// Per-mode counters within [`TraceStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeStats {
    /// Total references.
    pub accesses: u64,
    /// References by kind, indexed by [`crate::AccessKind::index`].
    pub by_kind: [u64; 3],
    /// Distinct cache lines touched.
    pub unique_lines: u64,
    /// Log2-bucketed histogram of reuse intervals (accesses between
    /// consecutive touches of the same line).
    pub reuse_hist: [u64; REUSE_BUCKETS],
    /// Number of first-time (cold) line touches.
    pub cold_touches: u64,
}

impl ModeStats {
    /// Footprint in bytes for the given line size.
    pub fn footprint_bytes(&self, line_bytes: u64) -> u64 {
        self.unique_lines * line_bytes
    }

    /// Median reuse interval estimated from the histogram (returns the
    /// lower bound of the median bucket), or `None` when no reuses exist.
    pub fn median_reuse_interval(&self) -> Option<u64> {
        let total: u64 = self.reuse_hist.iter().sum();
        if total == 0 {
            return None;
        }
        let mut acc = 0u64;
        for (i, &c) in self.reuse_hist.iter().enumerate() {
            acc += c;
            if acc * 2 >= total {
                return Some(1u64 << i);
            }
        }
        None
    }
}

/// Summary statistics for a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Per-mode counters, indexed by [`Mode::index`].
    pub modes: [ModeStats; 2],
    /// Number of user↔kernel transitions observed.
    pub mode_switches: u64,
    /// Cache-line size the statistics were computed at.
    pub line_bytes: u64,
}

impl TraceStats {
    /// Computes statistics over `trace` at the given line granularity.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_trace::{AppProfile, TraceGenerator, TraceStats};
    ///
    /// let gen = TraceGenerator::new(&AppProfile::email(), 1);
    /// let stats = TraceStats::collect(gen.take(50_000), 64);
    /// assert!(stats.kernel_share() > 0.0);
    /// ```
    pub fn collect<I>(trace: I, line_bytes: u64) -> Self
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        let mut stats = TraceStats {
            line_bytes,
            ..TraceStats::default()
        };
        // line -> index of its last touch. Keys are self-generated line
        // addresses, so the fixed-seed FxHash map is safe and keeps the
        // collection pass cheap and run-to-run identical.
        let mut last_touch: FxHashMap<u64, u64> = FxHashMap::default();
        let mut prev_mode: Option<Mode> = None;
        for (index, a) in (0u64..).zip(trace) {
            let m = &mut stats.modes[a.mode.index()];
            m.accesses += 1;
            m.by_kind[a.kind.index()] += 1;
            let line = a.line(line_bytes);
            // Key includes the mode so user/kernel reuse profiles stay
            // independent even if address spaces ever overlapped.
            let key = line ^ ((a.mode.index() as u64) << 63);
            match last_touch.insert(key, index) {
                None => {
                    m.unique_lines += 1;
                    m.cold_touches += 1;
                }
                Some(prev) => {
                    let interval = (index - prev).max(1);
                    let bucket = (63 - interval.leading_zeros() as usize).min(REUSE_BUCKETS - 1);
                    m.reuse_hist[bucket] += 1;
                }
            }
            if let Some(p) = prev_mode {
                if p != a.mode {
                    stats.mode_switches += 1;
                }
            }
            prev_mode = Some(a.mode);
        }
        stats
    }

    /// Total references across both modes.
    pub fn total_accesses(&self) -> u64 {
        self.modes.iter().map(|m| m.accesses).sum()
    }

    /// Fraction of references executed in kernel mode.
    ///
    /// Returns `0.0` for an empty trace.
    pub fn kernel_share(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.modes[Mode::Kernel.index()].accesses as f64 / total as f64
        }
    }

    /// Per-mode statistics.
    pub fn mode(&self, mode: Mode) -> &ModeStats {
        &self.modes[mode.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppProfile;
    use crate::generator::TraceGenerator;

    fn mk(addr: u64, mode: Mode) -> MemoryAccess {
        MemoryAccess::new(addr, 0, AccessKind::Load, mode)
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::collect(std::iter::empty(), 64);
        assert_eq!(s.total_accesses(), 0);
        assert_eq!(s.kernel_share(), 0.0);
        assert_eq!(s.mode_switches, 0);
    }

    #[test]
    fn counts_modes_and_switches() {
        let trace = vec![
            mk(0, Mode::User),
            mk(64, Mode::User),
            mk(0xC000_0000, Mode::Kernel),
            mk(128, Mode::User),
        ];
        let s = TraceStats::collect(trace, 64);
        assert_eq!(s.mode(Mode::User).accesses, 3);
        assert_eq!(s.mode(Mode::Kernel).accesses, 1);
        assert_eq!(s.mode_switches, 2);
        assert!((s.kernel_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unique_lines_and_cold_touches() {
        let trace = vec![mk(0, Mode::User), mk(8, Mode::User), mk(64, Mode::User)];
        let s = TraceStats::collect(trace, 64);
        assert_eq!(s.mode(Mode::User).unique_lines, 2);
        assert_eq!(s.mode(Mode::User).cold_touches, 2);
        assert_eq!(s.mode(Mode::User).footprint_bytes(64), 128);
    }

    #[test]
    fn reuse_interval_buckets() {
        // Touch line 0, then 3 other lines, then line 0 again → interval 4.
        let trace = vec![
            mk(0, Mode::User),
            mk(64, Mode::User),
            mk(128, Mode::User),
            mk(192, Mode::User),
            mk(0, Mode::User),
        ];
        let s = TraceStats::collect(trace, 64);
        // interval 4 → bucket log2(4) = 2.
        assert_eq!(s.mode(Mode::User).reuse_hist[2], 1);
        assert_eq!(s.mode(Mode::User).median_reuse_interval(), Some(4));
    }

    #[test]
    fn median_none_without_reuse() {
        let trace = vec![mk(0, Mode::User), mk(64, Mode::User)];
        let s = TraceStats::collect(trace, 64);
        assert_eq!(s.mode(Mode::User).median_reuse_interval(), None);
    }

    #[test]
    fn by_kind_counts() {
        let trace = vec![
            MemoryAccess::new(0, 0, AccessKind::InstrFetch, Mode::User),
            MemoryAccess::new(0, 0, AccessKind::Store, Mode::User),
            MemoryAccess::new(0, 0, AccessKind::Load, Mode::User),
            MemoryAccess::new(0, 0, AccessKind::Store, Mode::User),
        ];
        let s = TraceStats::collect(trace, 64);
        let m = s.mode(Mode::User);
        assert_eq!(m.by_kind[AccessKind::InstrFetch.index()], 1);
        assert_eq!(m.by_kind[AccessKind::Load.index()], 1);
        assert_eq!(m.by_kind[AccessKind::Store.index()], 2);
    }

    #[test]
    fn generated_traces_have_mode_specific_reuse() {
        let gen = TraceGenerator::new(&AppProfile::browser(), 21);
        let s = TraceStats::collect(gen.take(300_000), 64);
        let user = s.mode(Mode::User);
        let kernel = s.mode(Mode::Kernel);
        assert!(user.accesses > 0 && kernel.accesses > 0);
        // Both modes show reuse (hist non-empty).
        assert!(user.reuse_hist.iter().sum::<u64>() > 0);
        assert!(kernel.reuse_hist.iter().sum::<u64>() > 0);
        // Kernel and user reuse-interval distributions must be measurably
        // different (claim C4 at trace level): kernel reuse is shaped by
        // burst-scale and cross-burst re-references, user reuse by loop
        // scales. Compare via total-variation distance of the normalized
        // histograms.
        let normalize = |m: &ModeStats| {
            let total: u64 = m.reuse_hist.iter().sum();
            m.reuse_hist
                .iter()
                .map(|&c| c as f64 / total as f64)
                .collect::<Vec<f64>>()
        };
        let (nu, nk) = (normalize(user), normalize(kernel));
        let tv: f64 = nu.iter().zip(&nk).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        assert!(
            tv > 0.05,
            "user and kernel reuse distributions should differ (TV = {tv:.3})"
        );
        assert!(user.median_reuse_interval().is_some());
        assert!(kernel.median_reuse_interval().is_some());
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_bad_line_size() {
        TraceStats::collect(std::iter::empty(), 48);
    }
}
