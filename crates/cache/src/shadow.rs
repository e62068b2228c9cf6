//! Utility monitoring via sampled auxiliary tag directories.
//!
//! A [`UtilityMonitor`] answers the question at the heart of dynamic cache
//! partitioning: *how many extra hits would this request stream get for
//! each additional way?* It keeps a full-associativity LRU tag stack for a
//! sampled subset of sets (Qureshi & Patt's UMON-DSS structure) and counts
//! hits per LRU stack position. `hits_with_ways(w)` then estimates the
//! hits the stream would enjoy in a `w`-way cache.
//!
//! The stacks themselves are the shared [`LruStackCore`] — the same
//! engine the exhaustive [`MrcProfiler`](crate::mrc::MrcProfiler) runs
//! over *every* set; the monitor differs only in sampling a subset of
//! sets and folding both privilege modes into one counter per position.

use crate::config::{CacheGeometry, GeometryError};
use crate::mrc::LruStackCore;

/// Sampled-set utility monitor (UMON).
#[derive(Debug, Clone)]
pub struct UtilityMonitor {
    sets: u64,
    ways: u32,
    /// One in `2^sample_shift` sets is sampled.
    sample_shift: u32,
    /// One LRU stack per sampled set, of depth `ways`.
    core: LruStackCore,
    /// `position_hits[p]`: hits found at LRU stack depth `p`.
    position_hits: Vec<u64>,
    misses: u64,
    accesses: u64,
}

impl UtilityMonitor {
    /// Creates a monitor mirroring `geom`, sampling one in
    /// `2^sample_shift` sets.
    ///
    /// # Panics
    ///
    /// Panics if `2^sample_shift` exceeds the set count; see
    /// [`UtilityMonitor::try_new`] for the fallible path this delegates
    /// to.
    pub fn new(geom: CacheGeometry, sample_shift: u32) -> Self {
        Self::try_new(geom, sample_shift).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`UtilityMonitor::new`].
    ///
    /// # Errors
    ///
    /// [`GeometryError::SamplePeriodTooCoarse`] if `2^sample_shift`
    /// exceeds the set count.
    pub fn try_new(geom: CacheGeometry, sample_shift: u32) -> Result<Self, GeometryError> {
        let period = 1u64 << sample_shift;
        if period > geom.sets() {
            return Err(GeometryError::SamplePeriodTooCoarse {
                period,
                sets: geom.sets(),
            });
        }
        let sampled = (geom.sets() / period) as usize;
        Ok(Self {
            sets: geom.sets(),
            ways: geom.ways(),
            sample_shift,
            core: LruStackCore::new(sampled, geom.ways() as usize),
            position_hits: vec![0; geom.ways() as usize],
            misses: 0,
            accesses: 0,
        })
    }

    /// Total observations that fell on sampled sets.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Observations that missed even with full associativity.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Feeds one line address through the monitor.
    pub fn observe(&mut self, line: u64) {
        let set = line & (self.sets - 1);
        if set & ((1 << self.sample_shift) - 1) != 0 {
            return;
        }
        let s = (set >> self.sample_shift) as usize;
        let tag = line >> self.sets.trailing_zeros();
        self.accesses += 1;
        match self.core.touch(s, tag) {
            Some(pos) => self.position_hits[pos as usize] += 1,
            None => self.misses += 1,
        }
    }

    /// Estimated hits (on sampled sets) if the stream ran in a cache with
    /// `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds the monitored associativity.
    pub fn hits_with_ways(&self, ways: u32) -> u64 {
        assert!(ways <= self.ways, "monitor only tracks {} ways", self.ways);
        self.position_hits[..ways as usize].iter().sum()
    }

    /// Clears all counters and stacks (start of a new epoch).
    pub fn reset(&mut self) {
        self.core.clear();
        self.reset_counters();
    }

    /// Clears counters but keeps the tag stacks warm (epoch boundary that
    /// should not re-pay cold misses).
    pub fn reset_counters(&mut self) {
        self.position_hits.iter_mut().for_each(|h| *h = 0);
        self.misses = 0;
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64 * 1024, 8, 64).expect("valid") // 128 sets
    }

    #[test]
    fn sampling_counts_only_sampled_sets() {
        // Every 32nd set is sampled: set 0 is, set 1 is not.
        let mut m = UtilityMonitor::new(geom(), 5);
        m.observe(0); // set 0
        m.observe(1); // set 1 — ignored
        assert_eq!(m.accesses(), 1);
        // Four of the 128 sets are sampled: 0, 32, 64 and 96.
        for set in 2..128 {
            m.observe(set);
        }
        assert_eq!(m.accesses(), 4);
    }

    #[test]
    fn stack_position_hits() {
        let mut m = UtilityMonitor::new(geom(), 7); // only set 0 sampled
        let line = |tag: u64| tag * 128; // all map to set 0
        m.observe(line(1)); // miss
        m.observe(line(2)); // miss
        m.observe(line(2)); // hit at MRU (pos 0)
        m.observe(line(1)); // hit at pos 1
        assert_eq!(m.misses(), 2);
        assert_eq!(m.hits_with_ways(1), 1);
        assert_eq!(m.hits_with_ways(2), 2);
        assert_eq!(m.hits_with_ways(8), 2);
    }

    #[test]
    fn stack_capacity_bounded_by_ways() {
        let mut m = UtilityMonitor::new(geom(), 7);
        let line = |tag: u64| tag * 128;
        // 10 distinct tags into an 8-way monitor; then re-touch the first.
        for t in 0..10 {
            m.observe(line(t));
        }
        m.observe(line(0)); // fell off the stack → miss
        assert_eq!(m.misses(), 11);
    }

    #[test]
    fn hits_with_ways_monotone() {
        let mut m = UtilityMonitor::new(geom(), 5);
        // Pseudo-random-ish touches on sampled sets.
        for i in 0..10_000u64 {
            m.observe((i * 37) % 4096);
        }
        let mut prev = 0;
        for w in 1..=8 {
            let h = m.hits_with_ways(w);
            assert!(h >= prev, "utility must be monotone in ways");
            prev = h;
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = UtilityMonitor::new(geom(), 7);
        m.observe(0);
        m.observe(0);
        m.reset();
        assert_eq!(m.accesses(), 0);
        assert_eq!(m.misses(), 0);
        assert_eq!(m.hits_with_ways(8), 0);
        // After reset the first touch is a miss again.
        m.observe(0);
        assert_eq!(m.misses(), 1);
    }

    #[test]
    fn reset_counters_keeps_stacks_warm() {
        let mut m = UtilityMonitor::new(geom(), 7);
        m.observe(0);
        m.reset_counters();
        m.observe(0); // warm stack: a hit, not a miss
        assert_eq!(m.misses(), 0);
        assert_eq!(m.hits_with_ways(8), 1);
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn oversampling_panics() {
        UtilityMonitor::new(geom(), 8); // 256 > 128 sets
    }

    #[test]
    fn try_new_reports_oversampling_as_error() {
        let err = UtilityMonitor::try_new(geom(), 8).unwrap_err();
        assert_eq!(
            err,
            GeometryError::SamplePeriodTooCoarse {
                period: 256,
                sets: 128
            }
        );
        assert_eq!(err.to_string(), "sample period 256 exceeds 128 sets");
        assert!(UtilityMonitor::try_new(geom(), 7).is_ok());
    }

    #[test]
    #[should_panic(expected = "only tracks")]
    fn too_many_ways_query_panics() {
        let m = UtilityMonitor::new(geom(), 5);
        m.hits_with_ways(9);
    }
}
