//! Single-pass miss-rate-curve (MRC) profiling for LRU caches.
//!
//! A Mattson stack-distance pass exploits the **inclusion property** of
//! LRU: a `w`-way LRU set holds exactly the `w` most recently touched
//! tags of that set, so a `w₁`-way cache's contents are a prefix of a
//! `w₂`-way cache's for every `w₁ < w₂`. Recording, per set, the LRU
//! *stack position* at which each access hits therefore scores **every**
//! way count at once: an access that hits at position `p` (0-based) hits
//! in every cache with more than `p` ways and misses in every smaller
//! one. One pass over an L2-visible request stream yields the exact LRU
//! hit count for the whole way-count axis — the full miss-rate curve —
//! and running one profiling lane per candidate set count extends that
//! to an entire (sets × ways) grid.
//!
//! The counts are **exact**, not approximate: the same pure-LRU update
//! that [`crate::cache::SetAssocCache`] applies inside a
//! [`WayMask`](crate::config::WayMask) of `w` ways is a depth-`w` LRU
//! stack, and fills are write-allocate on every miss for both engines.
//! The differential suite (`crates/cache/tests/mrc_differential.rs`)
//! pins field-by-field equality against the simulating cache over
//! randomized geometries, masks and traces.
//!
//! Counters are split by privilege [`Mode`], mirroring
//! [`crate::stats::CacheStats`], so the paper's kernel-share analysis
//! falls out of the same pass. Write hits are tracked separately per
//! stack position, which is what an analytical energy projection needs
//! to split array read energy from array write energy per way count.
//!
//! [`LruStackCore`] is the shared stack engine: both the profiler here
//! and the sampling [`UtilityMonitor`](crate::shadow::UtilityMonitor)
//! are built on it, so the repo has exactly one LRU stack
//! implementation.

use moca_trace::Mode;

use crate::config::GeometryError;
use crate::hierarchy::L2Request;

/// Widest way count a profiler lane can track, matching
/// [`WayMask`](crate::config::WayMask)'s 64-way limit.
pub const MAX_DEPTH: u32 = 64;

/// A flat array of bounded-depth LRU stacks (one per set), the shared
/// core of [`MrcProfiler`] and
/// [`UtilityMonitor`](crate::shadow::UtilityMonitor).
///
/// Each stack holds up to `depth` tags in recency order (index 0 is the
/// most recently used). [`touch`](LruStackCore::touch) performs the
/// search + move-to-front update and reports the pre-update position —
/// the stack distance — of a hit.
#[derive(Debug, Clone)]
pub struct LruStackCore {
    depth: usize,
    /// `stacks * depth` tags, stack-major; only the first `lens[s]`
    /// entries of stack `s` are valid.
    tags: Vec<u64>,
    lens: Vec<u32>,
}

impl LruStackCore {
    /// Creates `stacks` empty stacks of capacity `depth` tags each.
    ///
    /// # Panics
    ///
    /// Panics if `stacks` or `depth` is zero.
    pub fn new(stacks: usize, depth: usize) -> Self {
        assert!(stacks > 0, "need at least one stack");
        assert!(depth > 0, "need at least one way of depth");
        LruStackCore {
            depth,
            tags: vec![0; stacks * depth],
            lens: vec![0; stacks],
        }
    }

    /// Current number of resident tags in stack `stack`.
    pub fn len(&self, stack: usize) -> usize {
        self.lens[stack] as usize
    }

    /// `true` if stack `stack` holds no tags yet.
    pub fn is_empty(&self, stack: usize) -> bool {
        self.lens[stack] == 0
    }

    /// Touches `tag` in stack `stack`: returns `Some(position)` — the
    /// 0-based recency depth before the update — if the tag was
    /// resident, or `None` for a cold/capacity miss. Either way the tag
    /// ends up at the front (most recently used); on a miss with a full
    /// stack the least recently used tag falls off the end.
    #[inline]
    pub fn touch(&mut self, stack: usize, tag: u64) -> Option<u32> {
        match self.access(stack, tag) {
            Touch::Hit(pos) => Some(pos),
            Touch::Miss(_) => None,
        }
    }

    /// [`touch`](LruStackCore::touch), also naming the tag a miss
    /// pushed off the end of a full stack — what an LRU cache of
    /// `depth` ways evicts.
    #[inline]
    pub(crate) fn access(&mut self, stack: usize, tag: u64) -> Touch {
        let base = stack * self.depth;
        let window = &mut self.tags[base..base + self.depth];
        let len = self.lens[stack] as usize;
        match window[..len].iter().position(|&t| t == tag) {
            Some(pos) => {
                shift_down(&mut window[..=pos]);
                window[0] = tag;
                Touch::Hit(pos as u32)
            }
            None => {
                let victim = (len == self.depth).then(|| window[len - 1]);
                let len = (len + 1).min(self.depth);
                self.lens[stack] = len as u32;
                shift_down(&mut window[..len]);
                window[0] = tag;
                Touch::Miss(victim)
            }
        }
    }

    /// Resident tags of stack `stack` in recency order (MRU first).
    pub fn resident(&self, stack: usize) -> &[u64] {
        let base = stack * self.depth;
        &self.tags[base..base + self.lens[stack] as usize]
    }

    /// Empties every stack.
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }
}

/// Moves every entry of `entries` one place toward its end, dropping the
/// last and leaving the first in place: the move-to-front shift of a
/// stack. An element loop, not a `memmove` call: the call costs more
/// than the moves of the L1's two-deep stacks save.
#[inline]
pub(crate) fn shift_down<T: Copy>(entries: &mut [T]) {
    for i in (1..entries.len()).rev() {
        entries[i] = entries[i - 1];
    }
}

/// What [`LruStackCore::access`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Touch {
    /// The tag was resident at this 0-based recency depth.
    Hit(u32),
    /// The tag was not resident; a full stack evicted the tag held here.
    Miss(Option<u64>),
}

/// One profiling lane: a full LRU stack array for a single set count.
#[derive(Debug, Clone)]
struct Lane {
    sets: u32,
    set_mask: u64,
    tag_shift: u32,
    core: LruStackCore,
    /// `position_hits[mode][p]`: accesses by `mode` that hit at stack
    /// distance `p` — i.e. hits in every cache of more than `p` ways.
    position_hits: [Vec<u64>; 2],
    /// Subset of `position_hits` whose access was a write.
    write_position_hits: [Vec<u64>; 2],
}

impl Lane {
    fn new(sets: u32, depth: u32) -> Self {
        Lane {
            sets,
            set_mask: u64::from(sets) - 1,
            tag_shift: sets.trailing_zeros(),
            core: LruStackCore::new(sets as usize, depth as usize),
            position_hits: [vec![0; depth as usize], vec![0; depth as usize]],
            write_position_hits: [vec![0; depth as usize], vec![0; depth as usize]],
        }
    }

    #[inline]
    fn observe(&mut self, line: u64, write: bool, mode: Mode) {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.tag_shift;
        if let Some(pos) = self.core.touch(set, tag) {
            let m = mode.index();
            self.position_hits[m][pos as usize] += 1;
            self.write_position_hits[m][pos as usize] += u64::from(write);
        }
    }

    fn reset(&mut self) {
        self.core.clear();
        for m in 0..2 {
            self.position_hits[m].fill(0);
            self.write_position_hits[m].fill(0);
        }
    }
}

/// Exact single-pass stack-distance profiler over an L2-visible request
/// stream.
///
/// One lane per candidate set count; every lane scores all way counts
/// `1..=max_ways` simultaneously. Feed it the same request sequence a
/// simulated L2 would see (demand first, then the dirty-victim
/// writeback, per filtered reference) and
/// [`curve`](MrcProfiler::curve) returns per-way-count hit counts that
/// exactly equal a [`SetAssocCache`](crate::cache::SetAssocCache) LRU
/// simulation's.
///
/// # Examples
///
/// ```
/// use moca_cache::mrc::MrcProfiler;
/// use moca_cache::{L2Cause, L2Request};
/// use moca_trace::{AccessKind, Mode};
///
/// // One set so every line contends for the same stack.
/// let mut prof = MrcProfiler::new(&[1], 8).unwrap();
/// for line in [1u64, 2, 3, 1, 2, 3] {
///     prof.observe(&L2Request {
///         line,
///         write: false,
///         mode: Mode::User,
///         cause: L2Cause::Demand(AccessKind::Load),
///     });
/// }
/// let curve = prof.curve(1).unwrap();
/// // Second round of 1,2,3 hits at stack distance 2: resident from
/// // 3 ways up, cold misses below.
/// assert_eq!(curve.hits(2, Mode::User), 0);
/// assert_eq!(curve.hits(3, Mode::User), 3);
/// assert_eq!(curve.misses(3, Mode::User), 3);
/// ```
#[derive(Debug, Clone)]
pub struct MrcProfiler {
    lanes: Vec<Lane>,
    max_ways: u32,
    /// Per-mode totals, shared by every lane (set indexing never changes
    /// how many requests arrive).
    accesses: [u64; 2],
    writes: [u64; 2],
}

impl MrcProfiler {
    /// Creates a profiler with one lane per entry of `set_counts`, each
    /// scoring way counts `1..=max_ways`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if `max_ways` is zero or exceeds
    /// [`MAX_DEPTH`], if `set_counts` is empty, or if any set count is
    /// zero or not a power of two (the same constraints
    /// [`CacheGeometry`](crate::config::CacheGeometry) enforces).
    pub fn new(set_counts: &[u32], max_ways: u32) -> Result<Self, GeometryError> {
        if max_ways == 0 {
            return Err(GeometryError::Zero("ways"));
        }
        if max_ways > MAX_DEPTH {
            return Err(GeometryError::TooManyWays(max_ways));
        }
        if set_counts.is_empty() {
            return Err(GeometryError::Zero("set counts"));
        }
        for &sets in set_counts {
            if sets == 0 {
                return Err(GeometryError::Zero("sets"));
            }
            if !sets.is_power_of_two() {
                return Err(GeometryError::NotPowerOfTwo("sets", u64::from(sets)));
            }
        }
        Ok(MrcProfiler {
            lanes: set_counts.iter().map(|&s| Lane::new(s, max_ways)).collect(),
            max_ways,
            accesses: [0; 2],
            writes: [0; 2],
        })
    }

    /// Widest way count every lane tracks.
    pub fn max_ways(&self) -> u32 {
        self.max_ways
    }

    /// The candidate set counts, in construction order.
    pub fn set_counts(&self) -> Vec<u32> {
        self.lanes.iter().map(|l| l.sets).collect()
    }

    /// Total requests observed so far.
    pub fn observed(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Feeds one L2-visible request through every lane.
    #[inline]
    pub fn observe(&mut self, req: &L2Request) {
        let m = req.mode.index();
        self.accesses[m] += 1;
        self.writes[m] += u64::from(req.write);
        for lane in &mut self.lanes {
            lane.observe(req.line, req.write, req.mode);
        }
    }

    /// The miss-rate curve of the lane profiling `sets` sets, or `None`
    /// if no lane was built for that set count.
    pub fn curve(&self, sets: u32) -> Option<MissRateCurve> {
        let lane = self.lanes.iter().find(|l| l.sets == sets)?;
        let prefix = |v: &Vec<u64>| {
            let mut out = Vec::with_capacity(v.len());
            let mut acc = 0u64;
            for &x in v {
                acc += x;
                out.push(acc);
            }
            out
        };
        Some(MissRateCurve {
            sets,
            cum_hits: [
                prefix(&lane.position_hits[0]),
                prefix(&lane.position_hits[1]),
            ],
            cum_write_hits: [
                prefix(&lane.write_position_hits[0]),
                prefix(&lane.write_position_hits[1]),
            ],
            accesses: self.accesses,
            writes: self.writes,
        })
    }

    /// Clears every lane's stacks and all counters.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
        self.accesses = [0; 2];
        self.writes = [0; 2];
    }
}

/// The miss-rate curve of one set count: exact per-mode LRU hit counts
/// for every way count `1..=max_ways`, queried in O(1) from prefix
/// sums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissRateCurve {
    sets: u32,
    /// `cum_hits[mode][w-1]`: hits by `mode` in a `w`-way LRU cache.
    cum_hits: [Vec<u64>; 2],
    cum_write_hits: [Vec<u64>; 2],
    accesses: [u64; 2],
    writes: [u64; 2],
}

impl MissRateCurve {
    /// Set count this curve was profiled at.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Widest way count the curve covers.
    pub fn max_ways(&self) -> u32 {
        self.cum_hits[0].len() as u32
    }

    #[inline]
    fn check_ways(&self, ways: u32) {
        assert!(
            ways >= 1 && ways <= self.max_ways(),
            "curve only covers 1..={} ways",
            self.max_ways()
        );
    }

    /// Requests issued by `mode` (independent of geometry).
    pub fn accesses(&self, mode: Mode) -> u64 {
        self.accesses[mode.index()]
    }

    /// Write requests issued by `mode` (independent of geometry).
    pub fn writes(&self, mode: Mode) -> u64 {
        self.writes[mode.index()]
    }

    /// Exact hits by `mode` in a `ways`-way LRU cache of
    /// [`sets`](MissRateCurve::sets) sets.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds
    /// [`max_ways`](MissRateCurve::max_ways).
    pub fn hits(&self, ways: u32, mode: Mode) -> u64 {
        self.check_ways(ways);
        self.cum_hits[mode.index()][ways as usize - 1]
    }

    /// Exact write hits by `mode` at `ways` ways (subset of
    /// [`hits`](MissRateCurve::hits)).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is out of the covered range.
    pub fn write_hits(&self, ways: u32, mode: Mode) -> u64 {
        self.check_ways(ways);
        self.cum_write_hits[mode.index()][ways as usize - 1]
    }

    /// Exact misses by `mode` at `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is out of the covered range.
    pub fn misses(&self, ways: u32, mode: Mode) -> u64 {
        self.accesses(mode) - self.hits(ways, mode)
    }

    /// Hits at `ways` ways summed over both modes.
    pub fn total_hits(&self, ways: u32) -> u64 {
        self.hits(ways, Mode::User) + self.hits(ways, Mode::Kernel)
    }

    /// Write hits at `ways` ways summed over both modes.
    pub fn total_write_hits(&self, ways: u32) -> u64 {
        self.write_hits(ways, Mode::User) + self.write_hits(ways, Mode::Kernel)
    }

    /// Misses at `ways` ways summed over both modes.
    pub fn total_misses(&self, ways: u32) -> u64 {
        self.misses(ways, Mode::User) + self.misses(ways, Mode::Kernel)
    }

    /// Requests summed over both modes.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Overall hit rate at `ways` ways (`0.0` on an empty stream).
    pub fn hit_rate(&self, ways: u32) -> f64 {
        let a = self.total_accesses();
        if a == 0 {
            0.0
        } else {
            self.total_hits(ways) as f64 / a as f64
        }
    }

    /// Hit rate of one mode at `ways` ways (`0.0` if the mode issued no
    /// requests).
    pub fn mode_hit_rate(&self, ways: u32, mode: Mode) -> f64 {
        let a = self.accesses(mode);
        if a == 0 {
            0.0
        } else {
            self.hits(ways, mode) as f64 / a as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::L2Cause;
    use moca_trace::AccessKind;

    fn req(line: u64, write: bool, mode: Mode) -> L2Request {
        L2Request {
            line,
            write,
            mode,
            cause: if write {
                L2Cause::Writeback
            } else {
                L2Cause::Demand(AccessKind::Load)
            },
        }
    }

    #[test]
    fn stack_core_reports_distances_and_moves_to_front() {
        let mut core = LruStackCore::new(1, 4);
        assert_eq!(core.touch(0, 10), None);
        assert_eq!(core.touch(0, 20), None);
        assert_eq!(core.touch(0, 30), None);
        // 10 is now deepest (position 2).
        assert_eq!(core.touch(0, 10), Some(2));
        assert_eq!(core.resident(0), &[10, 30, 20]);
        assert_eq!(core.touch(0, 10), Some(0));
    }

    #[test]
    fn stack_core_capacity_is_bounded() {
        let mut core = LruStackCore::new(1, 2);
        core.touch(0, 1);
        core.touch(0, 2);
        core.touch(0, 3); // evicts 1
        assert_eq!(core.len(0), 2);
        assert_eq!(core.touch(0, 1), None, "evicted tag must re-miss");
        assert_eq!(core.resident(0), &[1, 3]);
    }

    #[test]
    fn stack_core_clear_empties_every_stack() {
        let mut core = LruStackCore::new(4, 2);
        core.touch(3, 7);
        assert!(!core.is_empty(3));
        core.clear();
        assert!(core.is_empty(3));
        assert_eq!(core.touch(3, 7), None);
    }

    #[test]
    fn curve_hits_are_cumulative_in_ways() {
        let mut prof = MrcProfiler::new(&[1], 4).unwrap();
        // Distances: reuse of 1 at distance 2, reuse of 2 at distance 2.
        for line in [1u64, 2, 3, 1, 2] {
            prof.observe(&req(line, false, Mode::User));
        }
        let c = prof.curve(1).unwrap();
        assert_eq!(c.hits(1, Mode::User), 0);
        assert_eq!(c.hits(2, Mode::User), 0);
        assert_eq!(c.hits(3, Mode::User), 2);
        assert_eq!(c.hits(4, Mode::User), 2);
        assert_eq!(c.misses(3, Mode::User), 3);
        assert!((c.hit_rate(3) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn modes_are_tracked_independently() {
        let mut prof = MrcProfiler::new(&[1], 2).unwrap();
        prof.observe(&req(5, false, Mode::User));
        prof.observe(&req(5, true, Mode::Kernel));
        prof.observe(&req(5, false, Mode::User));
        let c = prof.curve(1).unwrap();
        assert_eq!(c.accesses(Mode::User), 2);
        assert_eq!(c.accesses(Mode::Kernel), 1);
        assert_eq!(c.hits(1, Mode::User), 1);
        assert_eq!(c.hits(1, Mode::Kernel), 1);
        assert_eq!(c.write_hits(1, Mode::Kernel), 1);
        assert_eq!(c.write_hits(1, Mode::User), 0);
        assert_eq!(c.writes(Mode::Kernel), 1);
    }

    #[test]
    fn sets_split_the_address_stream() {
        // With 2 sets, lines 0 and 2 share set 0 and never disturb
        // line 1 in set 1.
        let mut prof = MrcProfiler::new(&[1, 2], 1).unwrap();
        for line in [0u64, 1, 2, 1] {
            prof.observe(&req(line, false, Mode::User));
        }
        // 1 set, 1 way: every access evicts the previous line.
        assert_eq!(prof.curve(1).unwrap().total_hits(1), 0);
        // 2 sets: line 1 stays resident in its own set.
        assert_eq!(prof.curve(2).unwrap().total_hits(1), 1);
        assert!(prof.curve(4).is_none());
    }

    #[test]
    fn constructor_validates_geometry() {
        assert!(matches!(
            MrcProfiler::new(&[64], 0),
            Err(GeometryError::Zero("ways"))
        ));
        assert!(matches!(
            MrcProfiler::new(&[64], 65),
            Err(GeometryError::TooManyWays(65))
        ));
        assert!(matches!(
            MrcProfiler::new(&[], 4),
            Err(GeometryError::Zero("set counts"))
        ));
        assert!(matches!(
            MrcProfiler::new(&[0], 4),
            Err(GeometryError::Zero("sets"))
        ));
        assert!(matches!(
            MrcProfiler::new(&[48], 4),
            Err(GeometryError::NotPowerOfTwo("sets", 48))
        ));
    }

    #[test]
    fn reset_clears_stacks_and_counters() {
        let mut prof = MrcProfiler::new(&[2], 2).unwrap();
        prof.observe(&req(9, true, Mode::Kernel));
        prof.observe(&req(9, false, Mode::Kernel));
        assert_eq!(prof.observed(), 2);
        prof.reset();
        assert_eq!(prof.observed(), 0);
        let c = prof.curve(2).unwrap();
        assert_eq!(c.total_hits(2), 0);
        assert_eq!(c.writes(Mode::Kernel), 0);
    }

    #[test]
    #[should_panic(expected = "curve only covers")]
    fn querying_past_max_ways_panics() {
        let mut prof = MrcProfiler::new(&[1], 2).unwrap();
        prof.observe(&req(1, false, Mode::User));
        prof.curve(1).unwrap().hits(3, Mode::User);
    }
}
