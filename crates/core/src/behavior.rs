//! Segment access-behaviour analysis.
//!
//! The paper's second observation (claim C4): once the L2 is partitioned,
//! the kernel and user segments show *completely different* access
//! behaviour — block lifetimes and re-reference intervals differ by orders
//! of magnitude — which motivates giving each segment its own STT-RAM
//! retention class. This module provides the histograms gathered while an
//! [`MobileL2`](crate::mobile_l2::MobileL2) runs and the retention
//! recommendation derived from them.

use moca_energy::RetentionClass;

/// Number of log2 buckets (cycle scale: bucket `i` holds values in
/// `[2^i, 2^(i+1))`), enough for 10-year retention at GHz clocks.
pub const INTERVAL_BUCKETS: usize = 60;

/// A log2-bucketed histogram of cycle intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalHistogram {
    buckets: Box<[u64; INTERVAL_BUCKETS]>,
    total: u64,
}

impl Default for IntervalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl IntervalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0; INTERVAL_BUCKETS]),
            total: 0,
        }
    }

    /// Records an interval in cycles (zero is counted in bucket 0).
    pub fn record(&mut self, cycles: u64) {
        let bucket = if cycles <= 1 {
            0
        } else {
            (63 - cycles.leading_zeros() as usize).min(INTERVAL_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; INTERVAL_BUCKETS] {
        &self.buckets
    }

    /// Lower bound (in cycles) of the bucket containing the `q`-quantile,
    /// or `None` for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.total == 0 {
            return None;
        }
        let threshold = (self.total as f64 * q).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= threshold {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << (INTERVAL_BUCKETS - 1))
    }

    /// Median interval (lower bound of the median bucket).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &IntervalHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Behaviour observed for one L2 segment while simulating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentBehavior {
    /// Intervals between consecutive touches of the same resident block,
    /// recorded on each hit from the block's previous touch.
    pub reuse: IntervalHistogram,
    /// Block lifetimes (fill → eviction/invalidation).
    pub lifetime: IntervalHistogram,
    /// Intervals between consecutive cell writes of the same block — the
    /// quantity an STT-RAM retention time must cover. Recorded on each
    /// write hit from the block's previous cell write (its fill, an
    /// earlier write hit or a refresh); a write that misses, including
    /// one to a block whose retention expired, starts a new block and
    /// records no interval.
    pub write_interval: IntervalHistogram,
    /// Evicted blocks that were touched only by their fill ("dead on
    /// arrival").
    pub dead_blocks: u64,
    /// Total blocks removed (evicted, drained, or expired).
    pub evictions: u64,
}

impl SegmentBehavior {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of removed blocks that were dead on arrival.
    pub fn dead_fraction(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.dead_blocks as f64 / self.evictions as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SegmentBehavior) {
        self.reuse.merge(&other.reuse);
        self.lifetime.merge(&other.lifetime);
        self.write_interval.merge(&other.write_interval);
        self.dead_blocks += other.dead_blocks;
        self.evictions += other.evictions;
    }
}

/// Recommends the shortest standard retention class that covers the given
/// quantile of observed block lifetimes.
///
/// A block whose lifetime exceeds the segment's retention expires and
/// costs an extra miss (or a refresh); choosing retention at a high
/// lifetime quantile keeps that overhead marginal while minimizing write
/// energy — the paper's multi-retention selection rule.
///
/// Returns [`RetentionClass::TenYears`] when the histogram is empty (no
/// evidence → be safe) or when no volatile class covers the quantile.
///
/// # Panics
///
/// Panics unless `0.0 < coverage <= 1.0` or `clock_ghz <= 0`.
pub fn recommend_retention(
    lifetimes: &IntervalHistogram,
    clock_ghz: f64,
    coverage: f64,
) -> RetentionClass {
    assert!(clock_ghz > 0.0, "clock must be positive");
    let Some(cycles) = lifetimes.quantile(coverage) else {
        return RetentionClass::TenYears;
    };
    let needed_secs = cycles as f64 / (clock_ghz * 1e9);
    // Shortest standard class covering the quantile. SWEEP is
    // longest-first, so scan from the short end.
    for rc in RetentionClass::SWEEP.iter().rev() {
        if rc.duration().secs() >= needed_secs {
            return *rc;
        }
    }
    RetentionClass::TenYears
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = IntervalHistogram::new();
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.buckets()[0], 1); // value 1
        assert_eq!(h.buckets()[1], 1); // value 2
        assert_eq!(h.buckets()[10], 1); // value 1024
        assert_eq!(h.median(), Some(4));
        assert_eq!(h.quantile(1.0), Some(1024));
        assert_eq!(h.quantile(0.2), Some(1));
    }

    #[test]
    fn histogram_zero_and_huge_values() {
        let mut h = IntervalHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[INTERVAL_BUCKETS - 1], 1);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = IntervalHistogram::new();
        assert_eq!(h.median(), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        IntervalHistogram::new().quantile(0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = IntervalHistogram::new();
        a.record(2);
        let mut b = IntervalHistogram::new();
        b.record(2);
        b.record(1 << 20);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.buckets()[1], 2);
    }

    #[test]
    fn dead_fraction() {
        let mut s = SegmentBehavior::new();
        assert_eq!(s.dead_fraction(), 0.0);
        s.evictions = 4;
        s.dead_blocks = 1;
        assert!((s.dead_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn segment_behavior_merge() {
        let mut a = SegmentBehavior::new();
        a.evictions = 1;
        a.reuse.record(8);
        let mut b = SegmentBehavior::new();
        b.evictions = 2;
        b.dead_blocks = 1;
        a.merge(&b);
        assert_eq!(a.evictions, 3);
        assert_eq!(a.dead_blocks, 1);
        assert_eq!(a.reuse.total(), 1);
    }

    #[test]
    fn retention_recommendation_scales_with_lifetime() {
        // Lifetimes around 1 M cycles at 1 GHz = 1 ms → 10 ms class.
        let mut short = IntervalHistogram::new();
        for _ in 0..100 {
            short.record(1 << 20);
        }
        assert_eq!(
            recommend_retention(&short, 1.0, 0.95),
            RetentionClass::TenMillis
        );

        // Lifetimes around 2^31 cycles ≈ 2.1 s → 10 s class.
        let mut long = IntervalHistogram::new();
        for _ in 0..100 {
            long.record(1 << 31);
        }
        assert_eq!(
            recommend_retention(&long, 1.0, 0.95),
            RetentionClass::TenSeconds
        );
    }

    #[test]
    fn retention_recommendation_empty_is_safe() {
        let h = IntervalHistogram::new();
        assert_eq!(recommend_retention(&h, 1.0, 0.95), RetentionClass::TenYears);
    }

    #[test]
    fn retention_recommendation_uses_quantile_not_max() {
        let mut h = IntervalHistogram::new();
        // 99 short lifetimes, 1 enormous outlier.
        for _ in 0..99 {
            h.record(1 << 18); // ~0.26 ms
        }
        h.record(1 << 40); // ~18 min
        assert_eq!(
            recommend_retention(&h, 1.0, 0.95),
            RetentionClass::TenMillis
        );
    }
}
