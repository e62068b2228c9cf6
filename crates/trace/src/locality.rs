//! Address-stream synthesis with controllable locality.
//!
//! Real application phases mix two access idioms:
//!
//! * **skewed reuse** — a hot subset of the working set is touched far more
//!   often than the cold bulk (modelled with a Zipf popularity law over a
//!   pseudo-random permutation of the region's lines, so hot lines spread
//!   across cache sets the way real allocations do), and
//! * **sequential bursts** — streaming runs through consecutive lines
//!   (array scans, instruction fall-through), modelled with geometric run
//!   lengths.
//!
//! A [`RegionStream`] blends the two according to its [`RegionSpec`].

use crate::rng::{Bernoulli, Geometric, Xoshiro256, Zipf};

/// A contiguous range of physical memory measured in cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    lines: u64,
    line_bytes: u64,
}

impl Region {
    /// Creates a region of `lines` cache lines starting at byte `base`.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, if `line_bytes` is not a power of two, or if
    /// `base` is not line-aligned.
    pub fn new(base: u64, lines: u64, line_bytes: u64) -> Self {
        assert!(lines > 0, "region must contain at least one line");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(base % line_bytes, 0, "region base must be line-aligned");
        Self {
            base,
            lines,
            line_bytes,
        }
    }

    /// First byte address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size of the region in cache lines.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Cache-line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        self.lines * self.line_bytes
    }

    /// One-past-the-end byte address.
    pub fn end(&self) -> u64 {
        self.base + self.bytes()
    }

    /// Byte address of the line with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `line >= self.lines()`.
    pub fn line_addr(&self, line: u64) -> u64 {
        assert!(line < self.lines, "line {line} out of region");
        self.base + line * self.line_bytes
    }

    /// Returns `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Returns `true` if this region overlaps `other`.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

/// Locality parameters for a [`RegionStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSpec {
    /// Number of cache lines in the region.
    pub lines: u64,
    /// Zipf skew of line popularity *within the hot core*. `0.0` is
    /// uniform; interactive-app heaps typically behave like `0.6..=1.3`.
    pub theta: f64,
    /// Probability that an access starts (or continues as part of) a
    /// sequential burst rather than a popularity-driven reuse.
    pub p_seq: f64,
    /// Mean length (in lines) of a sequential burst.
    pub seq_len_mean: f64,
    /// Size of the hot core in lines. Accesses outside the core land
    /// uniformly in the whole region (the cold, capacity-insensitive
    /// tail). Defaults to `lines` (pure Zipf).
    pub hot_lines: u64,
    /// Fraction of popularity-driven accesses served by the hot core.
    /// Defaults to `1.0`.
    pub hot_frac: f64,
    /// Probability of re-referencing one of the last few touched lines
    /// (short-term temporal locality; what makes L1 caches work).
    /// Defaults to `0.0`.
    pub p_recent: f64,
    /// Mean touches per line within a sequential burst (intra-line
    /// dwell; streaming code reads a 64 B line word by word).
    /// Defaults to `1.0`.
    pub seq_dwell: f64,
}

impl RegionSpec {
    /// Convenience constructor (pure Zipf popularity, no explicit core).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range (see field docs).
    pub fn new(lines: u64, theta: f64, p_seq: f64, seq_len_mean: f64) -> Self {
        let spec = Self {
            lines,
            theta,
            p_seq,
            seq_len_mean,
            hot_lines: lines,
            hot_frac: 1.0,
            p_recent: 0.0,
            seq_dwell: 1.0,
        };
        spec.validate();
        spec
    }

    /// Sets the short-term temporal locality knobs: `p_recent` is the
    /// probability of re-touching one of the last few lines, `seq_dwell`
    /// the mean touches per line during sequential bursts.
    ///
    /// # Panics
    ///
    /// Panics if `p_recent` is not a probability or `seq_dwell < 1.0`.
    pub fn with_temporal(mut self, p_recent: f64, seq_dwell: f64) -> Self {
        self.p_recent = p_recent;
        self.seq_dwell = seq_dwell;
        self.validate();
        self
    }

    /// Restricts the popularity mass to an explicit hot core: `hot_frac`
    /// of non-sequential accesses draw from the `hot_lines` most popular
    /// lines; the rest scatter uniformly over the region. This produces
    /// the working-set *knee* real workloads show in miss-rate-versus-
    /// capacity curves.
    ///
    /// # Panics
    ///
    /// Panics if `hot_lines` is zero or exceeds the region, or `hot_frac`
    /// is not a probability.
    pub fn with_hot(mut self, hot_lines: u64, hot_frac: f64) -> Self {
        self.hot_lines = hot_lines;
        self.hot_frac = hot_frac;
        self.validate();
        self
    }

    fn validate(&self) {
        assert!(self.lines > 0, "region spec needs at least one line");
        assert!(
            self.theta.is_finite() && self.theta >= 0.0,
            "theta must be finite and non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.p_seq),
            "p_seq must be a probability"
        );
        assert!(
            self.seq_len_mean >= 1.0,
            "sequential bursts are at least one line"
        );
        assert!(
            self.hot_lines > 0 && self.hot_lines <= self.lines,
            "hot core must be non-empty and within the region"
        );
        assert!(
            (0.0..=1.0).contains(&self.hot_frac),
            "hot_frac must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.p_recent),
            "p_recent must be a probability"
        );
        assert!(self.seq_dwell >= 1.0, "dwell is at least one touch");
    }
}

/// Maximum number of lines for which an explicit popularity permutation is
/// materialized. Above this the permutation is computed with a bijective
/// hash instead, keeping memory bounded for huge regions.
const PERM_MATERIALIZE_LIMIT: u64 = 1 << 20;

/// Maps Zipf ranks onto region line indices.
///
/// Hot ranks must not map to consecutive lines (that would collapse onto a
/// few cache sets); a permutation decorrelates popularity from address.
#[derive(Debug, Clone)]
enum RankMap {
    /// Explicit Fisher–Yates permutation (small regions).
    Table(Vec<u32>),
    /// Feistel-style bijective mix over `0..lines` (large regions).
    Hashed { lines: u64 },
}

impl RankMap {
    fn build(lines: u64, rng: &mut Xoshiro256) -> Self {
        if lines <= PERM_MATERIALIZE_LIMIT {
            let mut table: Vec<u32> = (0..lines as u32).collect();
            rng.shuffle(&mut table);
            RankMap::Table(table)
        } else {
            RankMap::Hashed { lines }
        }
    }

    fn map(&self, rank: u64) -> u64 {
        match self {
            RankMap::Table(t) => u64::from(t[rank as usize]),
            RankMap::Hashed { lines } => {
                // SplitMix-style mix, folded into range by re-hashing until
                // in-bounds would break bijectivity; instead use a simple
                // multiplicative permutation: (rank * odd) mod 2^k folded by
                // rejection onto [0, lines) via modulo. Modulo is not a
                // bijection when lines is not a power of two, but for huge
                // cold regions an occasional collision in the popularity
                // mapping is statistically irrelevant.
                let mixed = rank
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(31)
                    .wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                mixed % lines
            }
        }
    }
}

/// A deterministic address stream over one region with the locality mix
/// described by a [`RegionSpec`].
///
/// # Examples
///
/// ```
/// use moca_trace::locality::{Region, RegionSpec, RegionStream};
/// use moca_trace::rng::Xoshiro256;
///
/// let region = Region::new(0x10_0000, 4096, 64);
/// let spec = RegionSpec::new(4096, 0.9, 0.2, 8.0);
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// let mut stream = RegionStream::new(region, spec, &mut rng);
/// let addr = stream.next_addr(&mut rng);
/// assert!(region.contains(addr));
/// ```
#[derive(Debug, Clone)]
pub struct RegionStream {
    region: Region,
    spec: RegionSpec,
    zipf: Zipf,
    ranks: RankMap,
    /// `1 / seq_dwell`: the chance a burst's next touch leaves its line.
    seq_leave: Bernoulli,
    /// `p_recent`, `p_seq` and `hot_frac` as trials.
    retouch: Bernoulli,
    seq_start: Bernoulli,
    hot: Bernoulli,
    /// Sequential burst length, mean `seq_len_mean` lines.
    seq_len: Geometric,
    /// Current line of an in-progress sequential burst.
    seq_line: u64,
    /// Remaining lines in the in-progress burst.
    seq_remaining: u64,
    /// Streaming cursor for cold-tail accesses.
    cold_cursor: u64,
    /// Ring of recently returned lines (MRU re-reference targets).
    recent: [u64; 4],
    /// Next slot of `recent` to overwrite.
    recent_next: usize,
}

impl RegionStream {
    /// Builds a stream. The permutation is drawn from `rng`, so streams
    /// built with the same seed are identical.
    ///
    /// # Panics
    ///
    /// Panics if `spec.lines` disagrees with `region.lines()` or the spec
    /// is invalid.
    pub fn new(region: Region, spec: RegionSpec, rng: &mut Xoshiro256) -> Self {
        spec.validate();
        assert_eq!(
            spec.lines,
            region.lines(),
            "spec and region disagree on line count"
        );
        // Zipf support spans the hot core, capped: popularity differences
        // beyond ~64Ki ranks are irrelevant and the CDF table would waste
        // memory.
        let support = spec.hot_lines.min(1 << 16) as usize;
        let mut perm_rng = rng.fork(0x5265_6769); // "Regi"
        Self {
            region,
            spec,
            zipf: Zipf::new(support, spec.theta),
            ranks: RankMap::build(region.lines(), &mut perm_rng),
            seq_leave: Bernoulli::new(1.0 / spec.seq_dwell),
            retouch: Bernoulli::new(spec.p_recent),
            seq_start: Bernoulli::new(spec.p_seq),
            hot: Bernoulli::new(spec.hot_frac),
            seq_len: Geometric::new(1.0 / spec.seq_len_mean),
            seq_line: 0,
            seq_remaining: 0,
            cold_cursor: 0,
            recent: [0; 4],
            recent_next: 0,
        }
    }

    /// The region this stream walks.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Produces the next byte address (always line-aligned plus a small
    /// word offset, so consecutive samples may fall in the same line).
    pub fn next_addr(&mut self, rng: &mut Xoshiro256) -> u64 {
        let line = self.next_line(rng);
        // Touch a word within the line; 8-byte aligned.
        let words = self.region.line_bytes() / 8;
        let offset = if words > 1 { rng.below(words) * 8 } else { 0 };
        self.region.line_addr(line) + offset
    }

    /// Produces the next line index within the region.
    pub fn next_line(&mut self, rng: &mut Xoshiro256) -> u64 {
        if self.seq_remaining > 0 {
            // Intra-line dwell: linger on the current line so streaming
            // code enjoys L1 hits on the words of a fetched line. A dwell
            // of 1 leaves with certainty, without a draw.
            if !self.seq_leave.sample(rng) {
                return self.seq_line;
            }
            self.seq_remaining -= 1;
            self.seq_line = self.wrap_next(self.seq_line);
            return self.seq_line;
        }
        // Short-term temporal locality: re-touch a recent line.
        if self.retouch.sample(rng) {
            let i = rng.below(self.recent.len() as u64) as usize;
            return self.recent[i];
        }
        let line = if self.seq_start.sample(rng) && self.region.lines() > 1 {
            // Sequential bursts continue the cold stream (file reads,
            // frame buffers): they touch fresh lines and do not revisit
            // hot data, so they are insensitive to cache capacity.
            let start = self.next_cold_line(rng);
            let len = self.seq_len.sample(rng, self.region.lines());
            self.seq_line = start;
            self.seq_remaining = len.saturating_sub(1);
            start
        } else {
            self.popular_line(rng)
        };
        self.recent[self.recent_next] = line;
        self.recent_next = (self.recent_next + 1) % self.recent.len();
        line
    }

    /// The cold-tail cursor re-seeking to a random spot.
    const COLD_JUMP: Bernoulli = Bernoulli::new(1.0 / 16.0);

    /// Advances the cold streaming cursor and returns its line.
    ///
    /// Cold-tail accesses *stream* through the region (file reads, buffer
    /// recycling): a cyclic cursor with occasional re-seeks. Streaming
    /// reuse distances equal the region size, so the tail is insensitive
    /// to any realistic cache capacity — the property that lets a shrunk
    /// partition match the big shared cache (claim C3).
    fn next_cold_line(&mut self, rng: &mut Xoshiro256) -> u64 {
        if Self::COLD_JUMP.sample(rng) {
            self.cold_cursor = rng.below(self.region.lines());
        } else {
            self.cold_cursor = self.wrap_next(self.cold_cursor);
        }
        self.cold_cursor
    }

    /// The line after `line` (a line of the region), wrapping to 0.
    #[inline]
    fn wrap_next(&self, line: u64) -> u64 {
        let next = line + 1;
        if next == self.region.lines() {
            0
        } else {
            next
        }
    }

    fn popular_line(&mut self, rng: &mut Xoshiro256) -> u64 {
        if !self.hot.sample(rng) {
            let line = self.next_cold_line(rng);
            return self.ranks.map(line);
        }
        let rank = self.zipf.sample(rng) as u64;
        // Ranks beyond the zipf support (huge hot cores) land uniformly in
        // the remainder of the core.
        let line = if rank as usize == self.zipf.len() - 1
            && self.spec.hot_lines > self.zipf.len() as u64
        {
            rng.range(self.zipf.len() as u64 - 1, self.spec.hot_lines)
        } else {
            rank
        };
        self.ranks.map(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn stream(lines: u64, theta: f64, p_seq: f64) -> (RegionStream, Xoshiro256) {
        let region = Region::new(0x4000_0000, lines, 64);
        let spec = RegionSpec::new(lines, theta, p_seq, 8.0);
        let mut rng = Xoshiro256::seed_from_u64(99);
        let s = RegionStream::new(region, spec, &mut rng);
        (s, rng)
    }

    #[test]
    fn region_geometry() {
        let r = Region::new(0x1000, 16, 64);
        assert_eq!(r.bytes(), 1024);
        assert_eq!(r.end(), 0x1400);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x13ff));
        assert!(!r.contains(0x1400));
        assert_eq!(r.line_addr(1), 0x1040);
    }

    #[test]
    fn region_overlap() {
        let a = Region::new(0x1000, 16, 64);
        let b = Region::new(0x1200, 16, 64);
        let c = Region::new(0x2000, 16, 64);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn region_rejects_misaligned_base() {
        Region::new(0x1001, 16, 64);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn region_rejects_empty() {
        Region::new(0x1000, 0, 64);
    }

    #[test]
    fn addresses_stay_in_region() {
        let (mut s, mut rng) = stream(1024, 0.9, 0.3);
        for _ in 0..10_000 {
            let a = s.next_addr(&mut rng);
            assert!(s.region().contains(a), "address {a:#x} escaped region");
            assert_eq!(a % 8, 0, "addresses are word aligned");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut s1, mut r1) = stream(1024, 0.9, 0.3);
        let (mut s2, mut r2) = stream(1024, 0.9, 0.3);
        for _ in 0..1000 {
            assert_eq!(s1.next_addr(&mut r1), s2.next_addr(&mut r2));
        }
    }

    #[test]
    fn skew_creates_hot_lines() {
        let (mut s, mut rng) = stream(4096, 1.0, 0.0);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 40_000;
        for _ in 0..n {
            *counts.entry(s.next_line(&mut rng)).or_default() += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top16: u64 = freq.iter().take(16).sum();
        assert!(
            top16 as f64 > 0.25 * n as f64,
            "hot 16 lines should dominate a theta=1 stream (got {top16}/{n})"
        );
    }

    #[test]
    fn theta_zero_spreads_accesses() {
        let (mut s, mut rng) = stream(256, 0.0, 0.0);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..25_600 {
            *counts.entry(s.next_line(&mut rng)).or_default() += 1;
        }
        assert!(counts.len() > 250, "uniform stream should touch most lines");
    }

    #[test]
    fn sequential_bursts_produce_adjacent_lines() {
        let (mut s, mut rng) = stream(4096, 0.5, 1.0);
        let mut adjacent = 0u32;
        let mut prev = s.next_line(&mut rng);
        let n = 5000;
        for _ in 0..n {
            let cur = s.next_line(&mut rng);
            if cur == (prev + 1) % 4096 {
                adjacent += 1;
            }
            prev = cur;
        }
        assert!(
            adjacent as f64 > 0.6 * n as f64,
            "p_seq=1 stream should be mostly sequential ({adjacent}/{n})"
        );
    }

    #[test]
    fn single_line_region_works() {
        let (mut s, mut rng) = stream(1, 0.9, 0.5);
        for _ in 0..100 {
            assert_eq!(s.next_line(&mut rng), 0);
        }
    }

    #[test]
    fn huge_region_uses_hashed_map() {
        let lines = PERM_MATERIALIZE_LIMIT + 1;
        let region = Region::new(0x1_0000_0000, lines, 64);
        let spec = RegionSpec::new(lines, 0.8, 0.1, 4.0);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut s = RegionStream::new(region, spec, &mut rng);
        for _ in 0..1000 {
            let a = s.next_addr(&mut rng);
            assert!(region.contains(a));
        }
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn spec_region_mismatch_panics() {
        let region = Region::new(0, 64, 64);
        let spec = RegionSpec::new(128, 0.5, 0.1, 2.0);
        let mut rng = Xoshiro256::seed_from_u64(1);
        RegionStream::new(region, spec, &mut rng);
    }
}
