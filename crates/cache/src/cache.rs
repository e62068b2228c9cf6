//! The set-associative cache engine.
//!
//! [`SetAssocCache`] is a timing-free functional cache model: callers
//! supply a logical timestamp (`now`) with each access and get back hit /
//! miss / eviction information. Every operation takes a [`WayMask`]
//! restricting both lookup and fill, which is the primitive the paper's
//! way-partitioned and power-gated designs are built on.
//!
//! # Memory layout (structure-of-arrays)
//!
//! Block state is split by access temperature rather than stored as an
//! array of per-block structs:
//!
//! * **Hot**: a packed per-block tag array (`Vec<u64>`, set-major) plus
//!   one valid and one dirty **bitmask word per set**. A lookup touches
//!   only the set's valid word and the tags of candidate ways
//!   (`valid & mask` scanned with `trailing_zeros`), so the common path
//!   reads a few cache lines instead of one 64-byte struct per way.
//! * **Cold**: `owner`, `inserted_at`, `last_touch`, `last_write`, and
//!   `access_count` live in a separate parallel per-block record array
//!   and are touched only on a hit, fill, or eviction — never during the
//!   tag scan. Keeping the cold fields together (rather than one array
//!   per field) means a fill dirties one cache line of metadata instead
//!   of five.
//!
//! Scans iterate ways in increasing order exactly like the previous
//! array-of-structs engine, so results (including victim choice and every
//! statistic) are bit-identical to it.
//!
//! # Mask validation
//!
//! [`SetAssocCache::lookup`] and [`SetAssocCache::fill`] — and so
//! [`SetAssocCache::access`], which is built on them — validate masks the
//! same way: a mask referencing ways at or beyond [`CacheGeometry::ways`]
//! panics. `fill` (and so `access`) additionally rejects the empty mask,
//! because a fill must land somewhere; `lookup` accepts it as a trivially
//! empty search.
//!
//! # Replacement
//!
//! Replacement is true LRU, the paper's L2 policy: one stamp per block
//! from a cache-wide clock that ticks on every hit and fill. A fill into
//! a full mask evicts the allowed way with the smallest stamp, the lowest
//! such way on a tie. Partitioning and gating work by choosing masks, so
//! LRU is the only policy the engine models.
//!
//! # One scan per request
//!
//! `access` is [`SetAssocCache::lookup`] (the only tag scan) followed by
//! [`SetAssocCache::hit_at`] the way it found or `fill` on a miss.
//! Callers that must inspect a resident block before deciding — the L2
//! engines' lazy retention expiry, the prefetcher's presence check, the
//! hybrid's steered fill — call the three primitives themselves, so each
//! request still scans its set once.

use moca_trace::Mode;

use crate::config::{CacheGeometry, WayMask};
use crate::stats::CacheStats;

/// A copy of one block's state: a resident block ([`block_at`],
/// [`iter_valid`]) or one just removed by eviction, drain or
/// invalidation ([`AccessResult::victim`], [`invalidate_at`],
/// [`drain_way`]).
///
/// [`block_at`]: SetAssocCache::block_at
/// [`iter_valid`]: SetAssocCache::iter_valid
/// [`invalidate_at`]: SetAssocCache::invalidate_at
/// [`drain_way`]: SetAssocCache::drain_way
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockView {
    /// Line address of the block.
    pub line: u64,
    /// Whether the block is dirty (a removed dirty block needs a
    /// writeback).
    pub dirty: bool,
    /// Mode that owns (last filled) the block.
    pub owner: Mode,
    /// Timestamp at fill.
    pub inserted_at: u64,
    /// Timestamp of the most recent touch.
    pub last_touch: u64,
    /// Timestamp of the most recent *cell write* (fill, store hit, or
    /// refresh) — the event that resets an STT-RAM retention clock.
    pub last_write: u64,
    /// Number of touches since fill (including the fill).
    pub access_count: u64,
}

/// Cold per-block metadata, read and written only on hits, fills,
/// evictions, and maintenance operations — never by the tag scan.
///
/// The owner mode is packed into the top bit of the access-count word so
/// the record is exactly 32 bytes: two records per cache line, none
/// straddling a line boundary.
#[derive(Debug, Clone, Copy)]
struct ColdMeta {
    inserted_at: u64,
    last_touch: u64,
    last_write: u64,
    /// Access count in the low 63 bits, owner mode in the top bit.
    count_owner: u64,
}

impl ColdMeta {
    const OWNER_BIT: u64 = 1 << 63;

    const EMPTY: ColdMeta = ColdMeta {
        inserted_at: 0,
        last_touch: 0,
        last_write: 0,
        count_owner: 0,
    };

    fn filled(mode: Mode, now: u64) -> ColdMeta {
        ColdMeta {
            inserted_at: now,
            last_touch: now,
            last_write: now,
            count_owner: ((mode.index() as u64) << 63) | 1,
        }
    }

    fn owner(self) -> Mode {
        if self.count_owner & Self::OWNER_BIT != 0 {
            Mode::Kernel
        } else {
            Mode::User
        }
    }

    fn access_count(self) -> u64 {
        self.count_owner & !Self::OWNER_BIT
    }
}

/// Outcome of [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the request hit.
    pub hit: bool,
    /// The way that now holds the line.
    pub way: u32,
    /// A valid block displaced by the fill, if any.
    pub victim: Option<BlockView>,
    /// On a hit, the line's `last_touch` before this access; 0 on a miss.
    pub prev_touch: u64,
    /// On a hit, the line's `last_write` before this access; 0 on a miss.
    pub prev_write: u64,
}

/// Folds a tag to its 8-bit lookup signature.
#[inline]
fn tag_signature(tag: u64) -> u8 {
    (tag ^ (tag >> 8)) as u8
}

/// Associativity at or below which lookups compare full tags directly:
/// the set's whole tag array fits in one cache line, so the signature
/// filter's extra work costs more than it saves. Wider sets (the 16-way
/// L2) go through [`scan_for_tag`]'s signature pre-filter instead.
const DIRECT_SCAN_WAYS: u32 = 8;

/// Finds the lowest way in `live` whose tag matches, comparing full tags.
#[inline]
fn scan_tags_direct(set_tags: &[u64], tag: u64, mut live: u64) -> Option<u32> {
    while live != 0 {
        let way = live.trailing_zeros();
        if set_tags[way as usize] == tag {
            return Some(way);
        }
        live &= live - 1;
    }
    None
}

/// Finds the lowest way in `live` whose signature and full tag match.
///
/// `set_sigs` is the set's signature row, way `w` in byte `w % 8` of word
/// `w / 8`. Each word is scanned with SWAR zero-byte detection; only
/// matching bytes (hits and ~1/256 false positives) are verified against
/// the full tag array. Candidates are visited in increasing way order. A
/// row of a way count that is not a multiple of eight ends in zero
/// padding bytes: one can only match when `sig == 0`, and such phantom
/// ways are rejected by `live`, which never has bits at or above the way
/// count.
#[inline]
fn scan_for_tag(set_sigs: &[u64], set_tags: &[u64], sig: u8, tag: u64, live: u64) -> Option<u32> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let broadcast = LOW.wrapping_mul(u64::from(sig));
    let mut chunk_base = 0u32;
    for &word in set_sigs {
        let x = word ^ broadcast;
        // Bit 7 of each byte of `m` is set iff that byte of `x` is zero.
        let mut m = x.wrapping_sub(LOW) & !x & HIGH;
        while m != 0 {
            let way = chunk_base + m.trailing_zeros() / 8;
            if (live >> way) & 1 != 0 && set_tags[way as usize] == tag {
                return Some(way);
            }
            m &= m - 1;
        }
        chunk_base += 8;
    }
    None
}

/// A set-associative, write-back, write-allocate cache model.
///
/// # Examples
///
/// ```
/// use moca_cache::{CacheGeometry, SetAssocCache, WayMask};
/// use moca_trace::Mode;
///
/// let geom = CacheGeometry::new(64 * 1024, 8, 64)?;
/// let mut cache = SetAssocCache::new(geom);
/// let mask = WayMask::first(8);
///
/// let first = cache.access(0x1000 / 64, false, Mode::User, 0, mask);
/// assert!(!first.hit);
/// let second = cache.access(0x1000 / 64, false, Mode::User, 1, mask);
/// assert!(second.hit);
/// # Ok::<(), moca_cache::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    /// `geom.ways()`, hoisted out of the access path.
    ways: u32,
    /// `geom.sets() - 1`, for the set-index mask.
    set_mask: u64,
    /// `geom.sets().trailing_zeros()`, for the tag shift.
    tag_shift: u32,
    /// Bits of `WayMask::first(ways)`: the set of legal ways.
    legal_bits: u64,
    /// Hot: per-block tags, set-major (`set * ways + way`).
    tags: Vec<u64>,
    /// Hot: per-block 8-bit tag signatures, the first-level filter of
    /// the lookup scan: one row of `sig_words` words per set, way `w` in
    /// byte `w % 8` of the row's word `w / 8`, the last word zero-padded.
    sigs: Vec<u64>,
    /// `ways.div_ceil(8)`: words per signature row.
    sig_words: usize,
    /// Hot: two bitmask words per set — valid at `2 * set`, dirty at
    /// `2 * set + 1` (bit `w` = way `w`). Interleaving keeps both words
    /// of a set on the same cache line.
    flags: Vec<u64>,
    /// Cold: per-block metadata, set-major like `tags`.
    meta: Vec<ColdMeta>,
    /// LRU: per-block stamp of the last hit or fill (layout as `tags`).
    stamps: Vec<u64>,
    /// LRU: the cache-wide clock the stamps are drawn from.
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty LRU cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = (geom.sets() as usize) * (geom.ways() as usize);
        let sets = geom.sets() as usize;
        let sig_words = geom.ways().div_ceil(8) as usize;
        Self {
            geom,
            ways: geom.ways(),
            set_mask: geom.sets() - 1,
            tag_shift: geom.sets().trailing_zeros(),
            legal_bits: WayMask::first(geom.ways()).bits(),
            tags: vec![0; n],
            sigs: vec![0; sets * sig_words],
            sig_words,
            flags: vec![0; sets * 2],
            meta: vec![ColdMeta::EMPTY; n],
            stamps: vec![0; n],
            clock: 0,
            stats: CacheStats::new(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn idx(&self, set: u64, way: u32) -> usize {
        set as usize * self.ways as usize + way as usize
    }

    /// Valid bitmask word of `set`.
    #[inline]
    fn valid_bits(&self, set: u64) -> u64 {
        self.flags[set as usize * 2]
    }

    /// Dirty bitmask word of `set`.
    #[inline]
    fn dirty_bits(&self, set: u64) -> u64 {
        self.flags[set as usize * 2 + 1]
    }

    #[inline]
    fn line_from(&self, tag: u64, set: u64) -> u64 {
        (tag << self.tag_shift) | set
    }

    /// Performs an access to `line` (a line address, i.e. byte address
    /// divided by the line size) restricted to `mask`: one
    /// [`SetAssocCache::lookup`], then [`SetAssocCache::hit_at`] the way
    /// it found or [`SetAssocCache::fill`] on a miss.
    ///
    /// On a miss the line is filled into `mask`; a displaced valid block is
    /// returned in [`AccessResult::victim`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty or references ways beyond the geometry
    /// (see the module docs on mask validation).
    pub fn access(
        &mut self,
        line: u64,
        write: bool,
        mode: Mode,
        now: u64,
        mask: WayMask,
    ) -> AccessResult {
        match self.lookup(line, mask) {
            Some(way) => self.hit_at(line & self.set_mask, way, write, mode, now),
            None => self.fill(line, write, mode, now, mask),
        }
    }

    /// The way of `mask` that holds `line`, if any: one scan of the set's
    /// tags, changing no state.
    ///
    /// Lookup is restricted to the mask: partitioned segments are fully
    /// isolated, so a line resident in foreign ways is *not* found. An
    /// empty mask is a valid (trivially unsuccessful) search.
    ///
    /// # Panics
    ///
    /// Panics if `mask` references ways beyond the geometry.
    #[inline]
    pub fn lookup(&self, line: u64, mask: WayMask) -> Option<u32> {
        self.check_mask_bounds(mask);
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let ways = self.ways as usize;
        let base = set as usize * ways;
        let live = self.valid_bits(set) & mask.bits();
        // Narrow sets compare full tags directly (one cache line); wide
        // sets filter ways through the 8-bit signature array first (SWAR
        // zero-byte detection, one u64 word per 8 ways), so a wide-set
        // miss touches 1 byte per way of signatures instead of 8 bytes
        // per way of full tags, and only signature matches — real hits
        // plus ~1/256 false positives — read the tag array. Both scans
        // visit candidates in increasing way order against valid ∩ mask.
        if self.ways <= DIRECT_SCAN_WAYS {
            scan_tags_direct(&self.tags[base..base + ways], tag, live)
        } else {
            let row = set as usize * self.sig_words;
            scan_for_tag(
                &self.sigs[row..row + self.sig_words],
                &self.tags[base..base + ways],
                tag_signature(tag),
                tag,
                live,
            )
        }
    }

    /// Records a hit on the valid block at `(set, way)` — the way
    /// [`SetAssocCache::lookup`] found — by a `mode` access at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    #[inline]
    pub fn hit_at(
        &mut self,
        set: u64,
        way: u32,
        write: bool,
        mode: Mode,
        now: u64,
    ) -> AccessResult {
        assert!(way < self.ways, "way {way} out of range");
        debug_assert!(
            self.valid_bits(set) & (1u64 << way) != 0,
            "hit on an invalid way"
        );
        let i = set as usize * self.ways as usize + way as usize;
        let m = &mut self.meta[i];
        let (prev_touch, prev_write) = (m.last_touch, m.last_write);
        if write {
            self.flags[set as usize * 2 + 1] |= 1u64 << way;
            m.last_write = now;
        }
        m.last_touch = now;
        m.count_owner += 1;
        self.clock += 1;
        self.stamps[i] = self.clock;
        let c = &mut self.stats.by_mode[mode.index()];
        c.hits += 1;
        c.writes += u64::from(write);
        AccessResult {
            hit: true,
            way,
            victim: None,
            prev_touch,
            prev_write,
        }
    }

    /// Fills `line`, which is not resident in `mask` (a
    /// [`SetAssocCache::lookup`] over `mask`, or over any superset of it,
    /// came back empty), into `mask` as a `mode` miss at `now`.
    ///
    /// The fill takes the lowest invalid way of the mask, else the mask's
    /// LRU way, whose block comes back in [`AccessResult::victim`].
    /// Filling a line that *is* resident in `mask` leaves two copies.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty or references ways beyond the geometry.
    #[inline]
    pub fn fill(
        &mut self,
        line: u64,
        write: bool,
        mode: Mode,
        now: u64,
        mask: WayMask,
    ) -> AccessResult {
        let bits = mask.bits();
        assert!(bits != 0, "access with empty way mask");
        self.check_mask_bounds(mask);
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let si = set as usize;
        let base = si * self.ways as usize;

        let invalid = bits & !self.flags[si * 2];
        let (way, victim) = if invalid != 0 {
            (invalid.trailing_zeros(), None)
        } else {
            let w = self.lru_way(base, bits);
            let ev = self.view(set, w);
            if ev.owner == mode {
                self.stats.same_evictions[ev.owner.index()] += 1;
            } else {
                self.stats.cross_evictions[ev.owner.index()] += 1;
            }
            (w, Some(ev))
        };

        let i = base + way as usize;
        self.clock += 1;
        self.stamps[i] = self.clock;
        self.tags[i] = tag;
        let (word, shift) = (si * self.sig_words + way as usize / 8, (way % 8) * 8);
        self.sigs[word] =
            (self.sigs[word] & !(0xff << shift)) | (u64::from(tag_signature(tag)) << shift);
        self.flags[si * 2] |= 1u64 << way;
        if write {
            self.flags[si * 2 + 1] |= 1u64 << way;
        } else {
            self.flags[si * 2 + 1] &= !(1u64 << way);
        }
        self.meta[i] = ColdMeta::filled(mode, now);

        // One counter-block write per fill: every miss-path stat lands
        // here instead of re-dispatching `mode_mut` per field.
        let wb = u64::from(victim.is_some_and(|v| v.dirty));
        let c = &mut self.stats.by_mode[mode.index()];
        c.misses += 1;
        c.fills += 1;
        c.writes += u64::from(write);
        c.writebacks += wb;

        AccessResult {
            hit: false,
            way,
            victim,
            prev_touch: 0,
            prev_write: 0,
        }
    }

    /// The least recently used way among `bits` (non-empty, all valid) of
    /// the set whose blocks start at `base`: the smallest stamp, the
    /// lowest way on a tie (strict `<` in both scans).
    #[inline]
    fn lru_way(&self, base: usize, bits: u64) -> u32 {
        let stamps = &self.stamps[base..base + self.ways as usize];
        let mut best = u64::MAX;
        let mut w = 0u32;
        if bits == self.legal_bits {
            // Unrestricted mask: a linear min-reduction the compiler can
            // vectorize.
            for (i, &s) in stamps.iter().enumerate() {
                if s < best {
                    best = s;
                    w = i as u32;
                }
            }
        } else {
            let mut bits = bits;
            while bits != 0 {
                let i = bits.trailing_zeros();
                let s = stamps[i as usize];
                if s < best {
                    best = s;
                    w = i;
                }
                bits &= bits - 1;
            }
        }
        w
    }

    /// Timestamp of the most recent cell write (fill, store hit or
    /// refresh) of the block at `(set, way)`: the clock an STT-RAM
    /// retention period runs from. Meaningless for an invalid slot.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn last_write_at(&self, set: u64, way: u32) -> u64 {
        assert!(way < self.ways, "way {way} out of range");
        self.meta[self.idx(set, way)].last_write
    }

    #[inline]
    fn view(&self, set: u64, way: u32) -> BlockView {
        let i = self.idx(set, way);
        let m = self.meta[i];
        BlockView {
            line: self.line_from(self.tags[i], set),
            dirty: self.dirty_bits(set) & (1u64 << way) != 0,
            owner: m.owner(),
            inserted_at: m.inserted_at,
            last_touch: m.last_touch,
            last_write: m.last_write,
            access_count: m.access_count(),
        }
    }

    /// The mask of valid ways in `set`.
    ///
    /// Cheap (one word read); lets sweep-style callers skip invalid slots
    /// without probing each `(set, way)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn valid_ways(&self, set: u64) -> WayMask {
        assert!(set < self.geom.sets(), "set {set} out of range");
        WayMask::from_bits(self.valid_bits(set))
    }

    /// Returns a view of the block at `(set, way)` if valid.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn block_at(&self, set: u64, way: u32) -> Option<BlockView> {
        assert!(set < self.geom.sets() && way < self.ways);
        if self.valid_bits(set) & (1u64 << way) != 0 {
            Some(self.view(set, way))
        } else {
            None
        }
    }

    /// Invalidates the block at `(set, way)`, returning it if it was valid.
    ///
    /// Used by retention expiry and external coherence events.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn invalidate_at(&mut self, set: u64, way: u32) -> Option<BlockView> {
        assert!(set < self.geom.sets() && way < self.ways);
        if self.valid_bits(set) & (1u64 << way) == 0 {
            return None;
        }
        let ev = self.view(set, way);
        self.flags[set as usize * 2] &= !(1u64 << way);
        self.stats.invalidations += 1;
        Some(ev)
    }

    /// Records a refresh rewrite of the block at `(set, way)`: resets the
    /// cell-write clock without changing dirtiness or recency.
    ///
    /// Returns `false` if the slot is invalid.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn refresh_write(&mut self, set: u64, way: u32, now: u64) -> bool {
        assert!(set < self.geom.sets() && way < self.ways);
        if self.valid_bits(set) & (1u64 << way) == 0 {
            return false;
        }
        let i = self.idx(set, way);
        self.meta[i].last_write = now;
        true
    }

    /// Marks the block at `(set, way)` clean (after an early writeback,
    /// e.g. ahead of STT-RAM retention expiry). Returns `true` if the
    /// block was valid and dirty.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn clear_dirty(&mut self, set: u64, way: u32) -> bool {
        assert!(set < self.geom.sets() && way < self.ways);
        let bit = 1u64 << way;
        let fi = set as usize * 2;
        if self.flags[fi] & bit != 0 && self.flags[fi + 1] & bit != 0 {
            self.flags[fi + 1] &= !bit;
            true
        } else {
            false
        }
    }

    /// Evicts every valid block in `way` across all sets (used when a way
    /// is removed from a partition or power-gated). Dirty blocks are
    /// returned so the caller can write them back.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn drain_way(&mut self, way: u32) -> Vec<BlockView> {
        assert!(way < self.ways, "way {way} out of range");
        let mut out = Vec::new();
        let bit = 1u64 << way;
        for set in 0..self.geom.sets() {
            if self.valid_bits(set) & bit != 0 {
                if let Some(ev) = self.invalidate_at(set, way) {
                    out.push(ev);
                }
            }
        }
        out
    }

    /// Number of valid blocks currently resident in `mask`.
    ///
    /// With the per-set valid bitmasks this is a popcount per set, not a
    /// probe per `(set, way)` pair. Ways beyond the geometry contribute
    /// nothing.
    pub fn occupancy(&self, mask: WayMask) -> u64 {
        let bits = mask.bits() & self.legal_bits;
        self.flags
            .chunks_exact(2)
            .map(|pair| u64::from((pair[0] & bits).count_ones()))
            .sum()
    }

    /// Iterates views of all valid blocks (set-major order).
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, u32, BlockView)> + '_ {
        (0..self.geom.sets()).flat_map(move |set| {
            WayMask::from_bits(self.valid_bits(set))
                .iter()
                .map(move |way| (set, way, self.view(set, way)))
        })
    }

    /// Panics unless every way in `mask` exists in the geometry.
    #[inline]
    fn check_mask_bounds(&self, mask: WayMask) {
        assert!(
            mask.bits() & !self.legal_bits == 0,
            "mask {mask} references ways beyond {}-way geometry",
            self.ways
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 4 ways x 64B = 1 KiB
        let geom = CacheGeometry::new(1024, 4, 64).expect("valid");
        SetAssocCache::new(geom)
    }

    /// The resident block holding `line` in `mask`: `lookup`, then
    /// `block_at` the way it found.
    fn resident(c: &SetAssocCache, line: u64, mask: WayMask) -> Option<BlockView> {
        let way = c.lookup(line, mask)?;
        c.block_at(line % 4, way)
    }

    fn full() -> WayMask {
        WayMask::first(4)
    }

    /// Line addresses that all map to set 0 of the 4-set cache.
    fn set0_line(i: u64) -> u64 {
        i * 4
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let r = c.access(10, false, Mode::User, 0, full());
        assert!(!r.hit);
        assert!(r.victim.is_none());
        let r = c.access(10, false, Mode::User, 1, full());
        assert!(r.hit);
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn write_marks_dirty_and_writeback_on_eviction() {
        let mut c = small();
        c.access(set0_line(0), true, Mode::User, 0, full());
        // Fill the set, then one more to evict the dirty line.
        for i in 1..=4 {
            c.access(set0_line(i), false, Mode::User, i, full());
        }
        let evicted_dirty = c.stats().writebacks();
        assert_eq!(evicted_dirty, 1, "dirty LRU line must be written back");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        for i in 0..4 {
            c.access(set0_line(i), false, Mode::User, i, full());
        }
        // Touch line 0 so line 1 becomes LRU.
        c.access(set0_line(0), false, Mode::User, 10, full());
        let r = c.access(set0_line(9), false, Mode::User, 11, full());
        let v = r.victim.expect("set was full");
        assert_eq!(v.line, set0_line(1));
    }

    #[test]
    fn lru_respects_mask() {
        let mut c = small();
        for i in 0..4 {
            c.access(set0_line(i), false, Mode::User, i, full());
        }
        // Way 0 is the set's LRU way but lies outside the mask.
        let r = c.access(set0_line(9), false, Mode::User, 9, WayMask::range(2, 4));
        assert_eq!(r.way, 2);
        assert_eq!(r.victim.expect("mask was full").line, set0_line(2));
    }

    #[test]
    fn lru_order_is_per_set() {
        let mut c = small();
        // Set 0 fills ways 0, 1 in that order; set 1 touches way 0 last.
        c.access(set0_line(0), false, Mode::User, 0, WayMask::first(2));
        c.access(set0_line(1), false, Mode::User, 1, WayMask::first(2));
        c.access(1, false, Mode::User, 2, WayMask::first(2));
        c.access(5, false, Mode::User, 3, WayMask::first(2));
        c.access(1, false, Mode::User, 4, WayMask::first(2));
        let r0 = c.access(set0_line(2), false, Mode::User, 5, WayMask::first(2));
        let r1 = c.access(9, false, Mode::User, 6, WayMask::first(2));
        assert_eq!(r0.way, 0);
        assert_eq!(r1.way, 1);
    }

    #[test]
    fn cross_mode_eviction_counted() {
        let mut c = small();
        for i in 0..4 {
            c.access(set0_line(i), false, Mode::User, i, full());
        }
        let r = c.access(0xC000_0000 / 64 * 4, false, Mode::Kernel, 5, full());
        // Kernel fill evicted a user block.
        assert!(r.victim.is_some());
        assert_eq!(c.stats().cross_evictions[Mode::User.index()], 1);
        assert_eq!(c.stats().same_evictions[Mode::User.index()], 0);
        assert!((c.stats().cross_eviction_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mask_isolation_no_foreign_hits() {
        let mut c = small();
        let left = WayMask::range(0, 2);
        let right = WayMask::range(2, 4);
        c.access(20, false, Mode::User, 0, left);
        // Same line through the disjoint mask must MISS (strict isolation).
        let r = c.access(20, false, Mode::Kernel, 1, right);
        assert!(!r.hit);
        // And both copies may coexist in different ways.
        assert!(c.lookup(20, left).is_some());
        assert!(c.lookup(20, right).is_some());
    }

    #[test]
    fn fills_stay_inside_mask() {
        let mut c = small();
        let right = WayMask::range(2, 4);
        for i in 0..16 {
            let r = c.access(set0_line(i), false, Mode::Kernel, i, right);
            assert!(right.contains(r.way));
        }
        assert_eq!(c.occupancy(WayMask::range(0, 2)), 0);
    }

    #[test]
    fn lookup_does_not_mutate() {
        let mut c = small();
        c.access(7, true, Mode::User, 3, full());
        let before = *c.stats();
        let view = resident(&c, 7, full()).expect("resident");
        assert_eq!(view.line, 7);
        assert!(view.dirty);
        assert_eq!(view.owner, Mode::User);
        assert_eq!(before, *c.stats());
        assert!(c.lookup(8, full()).is_none());
    }

    #[test]
    fn lookup_accepts_empty_mask() {
        let mut c = small();
        c.access(7, false, Mode::User, 0, full());
        assert!(c.lookup(7, WayMask::EMPTY).is_none());
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn lookup_oversized_mask_panics_like_access() {
        let c = small();
        c.lookup(7, WayMask::first(8));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn fill_oversized_mask_panics_like_access() {
        let mut c = small();
        c.fill(7, false, Mode::User, 0, WayMask::first(8));
    }

    #[test]
    fn lookup_then_invalidate_at_returns_block() {
        let mut c = small();
        c.access(7, true, Mode::Kernel, 3, full());
        let way = c.lookup(7, full()).expect("was resident");
        let ev = c.invalidate_at(7 % 4, way).expect("valid slot");
        assert!(ev.dirty);
        assert_eq!(ev.owner, Mode::Kernel);
        assert!(c.lookup(7, full()).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.invalidate_at(7 % 4, way).is_none());
    }

    #[test]
    fn drain_way_empties_exactly_that_way() {
        let mut c = small();
        // Fill all 4 ways of every set.
        for set in 0..4u64 {
            for i in 0..4u64 {
                c.access(i * 4 + set, false, Mode::User, i, full());
            }
        }
        assert_eq!(c.occupancy(full()), 16);
        let drained = c.drain_way(2);
        assert_eq!(drained.len(), 4);
        assert_eq!(c.occupancy(full()), 12);
        assert_eq!(c.occupancy(WayMask::EMPTY.with(2)), 0);
    }

    #[test]
    fn valid_ways_tracks_contents() {
        let mut c = small();
        assert_eq!(c.valid_ways(0), WayMask::EMPTY);
        c.access(set0_line(0), false, Mode::User, 0, full());
        c.access(set0_line(1), false, Mode::User, 1, full());
        assert_eq!(c.valid_ways(0).count(), 2);
        c.invalidate_at(0, 0);
        assert_eq!(c.valid_ways(0).count(), 1);
        assert!(!c.valid_ways(0).contains(0));
    }

    #[test]
    fn block_metadata_tracks_touches() {
        let mut c = small();
        c.access(5, false, Mode::User, 100, full());
        c.access(5, true, Mode::User, 200, full());
        c.access(5, false, Mode::User, 300, full());
        let v = resident(&c, 5, full()).expect("resident");
        assert_eq!(v.inserted_at, 100);
        assert_eq!(v.last_touch, 300);
        assert_eq!(v.access_count, 3);
        assert!(v.dirty);
    }

    #[test]
    fn evicted_block_carries_lifetime() {
        // Line 0 (last touched at 20) is the LRU block when the fourth
        // new line fills its set.
        let mut evicted_line0 = None;
        let mut c = small();
        c.access(set0_line(0), false, Mode::User, 10, full());
        c.access(set0_line(0), false, Mode::User, 20, full());
        for i in 1..=4 {
            let r = c.access(set0_line(i), false, Mode::User, 100 + i, full());
            if let Some(v) = r.victim {
                if v.line == set0_line(0) {
                    evicted_line0 = Some(v);
                }
            }
        }
        let v = evicted_line0.expect("line 0 evicted");
        assert_eq!(v.inserted_at, 10);
        assert_eq!(v.last_touch, 20);
        assert_eq!(v.access_count, 2);
    }

    #[test]
    fn iter_valid_counts() {
        let mut c = small();
        c.access(1, false, Mode::User, 0, full());
        c.access(2, false, Mode::Kernel, 0, full());
        let blocks: Vec<_> = c.iter_valid().collect();
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn empty_mask_panics() {
        let mut c = small();
        c.access(1, false, Mode::User, 0, WayMask::EMPTY);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn oversized_mask_panics() {
        let mut c = small();
        c.access(1, false, Mode::User, 0, WayMask::first(8));
    }
}
