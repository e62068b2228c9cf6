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
//! [`SetAssocCache::access`], [`SetAssocCache::probe`], and
//! [`SetAssocCache::invalidate_line`] all validate masks the same way:
//! a mask referencing ways at or beyond [`CacheGeometry::ways`] panics
//! (historically `probe` silently ignored such ways while `access`
//! panicked). `access` additionally rejects the empty mask, because a fill
//! must land somewhere; `probe` and `invalidate_line` accept it as a
//! trivially empty search.

use moca_trace::Mode;

use crate::config::{CacheGeometry, WayMask};
use crate::replacement::{ReplacementPolicy, ReplacementState};
use crate::stats::CacheStats;

/// Read-only view of a resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockView {
    /// Line address of the block.
    pub line: u64,
    /// Whether the block is dirty.
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

/// A block removed from the cache (by eviction, drain, or invalidation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Line address of the removed block.
    pub line: u64,
    /// Whether it was dirty (requires writeback).
    pub dirty: bool,
    /// Mode that owned it.
    pub owner: Mode,
    /// Timestamp at fill.
    pub inserted_at: u64,
    /// Timestamp of its last touch.
    pub last_touch: u64,
    /// Timestamp of its last cell write.
    pub last_write: u64,
    /// Touches it received while resident.
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
    pub victim: Option<EvictedBlock>,
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
/// Signatures are scanned eight ways at a time with SWAR zero-byte
/// detection; only matching bytes (hits and ~1/256 false positives) are
/// verified against the full tag array. Candidates are visited in
/// increasing way order. `set_sigs` shorter than a multiple of eight is
/// zero-padded: a padding byte can only match when `sig == 0`, and such
/// phantom ways are rejected by `live`, which never has bits at or above
/// the way count.
#[inline]
fn scan_for_tag(set_sigs: &[u8], set_tags: &[u64], sig: u8, tag: u64, live: u64) -> Option<u32> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let broadcast = LOW.wrapping_mul(u64::from(sig));
    let mut chunk_base = 0u32;
    for chunk in set_sigs.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let x = u64::from_le_bytes(word) ^ broadcast;
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
/// use moca_cache::{CacheGeometry, ReplacementPolicy, SetAssocCache, WayMask};
/// use moca_trace::Mode;
///
/// let geom = CacheGeometry::new(64 * 1024, 8, 64)?;
/// let mut cache = SetAssocCache::new(geom, ReplacementPolicy::Lru);
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
    /// Hot: per-block 8-bit tag signatures (same layout as `tags`), the
    /// first-level filter of the lookup scan.
    sigs: Vec<u8>,
    /// Hot: two bitmask words per set — valid at `2 * set`, dirty at
    /// `2 * set + 1` (bit `w` = way `w`). Interleaving keeps both words
    /// of a set on the same cache line.
    flags: Vec<u64>,
    /// Cold: per-block metadata, set-major like `tags`.
    meta: Vec<ColdMeta>,
    repl: ReplacementState,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let n = (geom.sets() as usize) * (geom.ways() as usize);
        let sets = geom.sets() as usize;
        Self {
            geom,
            ways: geom.ways(),
            set_mask: geom.sets() - 1,
            tag_shift: geom.sets().trailing_zeros(),
            legal_bits: WayMask::first(geom.ways()).bits(),
            tags: vec![0; n],
            sigs: vec![0; n],
            flags: vec![0; sets * 2],
            meta: vec![ColdMeta::EMPTY; n],
            repl: ReplacementState::new(policy, geom.sets(), geom.ways()),
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

    /// Resets statistics to zero (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Bytes of heap memory the cache's arrays hold (tags, signatures,
    /// flags, cold metadata and replacement state) — what a clone costs.
    pub fn heap_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u64>()
            + self.sigs.capacity()
            + self.flags.capacity() * std::mem::size_of::<u64>()
            + self.meta.capacity() * std::mem::size_of::<ColdMeta>()
            + self.repl.heap_bytes()
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
    /// divided by the line size) restricted to `mask`.
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
        let bits = mask.bits();
        assert!(bits != 0, "access with empty way mask");
        self.check_mask_bounds(mask);

        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let si = set as usize;
        let base = si * self.ways as usize;
        let valid_bits = self.flags[si * 2];

        // Lookup restricted to the mask: partitioned segments are fully
        // isolated, so a line resident in foreign ways is *not* a hit.
        // Narrow sets compare full tags directly (one cache line); wide
        // sets filter ways through the 8-bit signature array first (SWAR
        // zero-byte detection, one u64 word per 8 ways), so a wide-set
        // miss touches 1 byte per way of signatures instead of 8 bytes
        // per way of full tags, and only signature matches — real hits
        // plus ~1/256 false positives — read the tag array. Both scans
        // visit candidates in increasing way order against valid ∩ mask,
        // preserving the old scan order exactly.
        let ways = self.ways as usize;
        let hit = if self.ways <= DIRECT_SCAN_WAYS {
            scan_tags_direct(&self.tags[base..base + ways], tag, valid_bits & bits)
        } else {
            scan_for_tag(
                &self.sigs[base..base + ways],
                &self.tags[base..base + ways],
                tag_signature(tag),
                tag,
                valid_bits & bits,
            )
        };
        if let Some(way) = hit {
            let m = &mut self.meta[base + way as usize];
            if write {
                self.flags[si * 2 + 1] |= 1u64 << way;
                m.last_write = now;
            }
            m.last_touch = now;
            m.count_owner += 1;
            self.repl.on_hit(set, self.ways, way);
            let c = &mut self.stats.by_mode[mode.index()];
            c.hits += 1;
            c.writes += u64::from(write);
            return AccessResult {
                hit: true,
                way,
                victim: None,
            };
        }

        // Miss: pick the lowest invalid way in the mask, else a policy
        // victim (victim choice + fill bookkeeping in one dispatch).
        let invalid = bits & !valid_bits;
        let (way, victim) = if invalid != 0 {
            let w = invalid.trailing_zeros();
            self.repl.on_fill(set, self.ways, w);
            (w, None)
        } else {
            let w = self.repl.evict_and_fill(set, self.ways, mask);
            let i = base + w as usize;
            let m = self.meta[i];
            let ev = EvictedBlock {
                line: self.line_from(self.tags[i], set),
                dirty: self.flags[si * 2 + 1] & (1u64 << w) != 0,
                owner: m.owner(),
                inserted_at: m.inserted_at,
                last_touch: m.last_touch,
                last_write: m.last_write,
                access_count: m.access_count(),
            };
            if ev.owner == mode {
                self.stats.same_evictions[ev.owner.index()] += 1;
            } else {
                self.stats.cross_evictions[ev.owner.index()] += 1;
            }
            (w, Some(ev))
        };

        let i = base + way as usize;
        self.tags[i] = tag;
        self.sigs[i] = tag_signature(tag);
        self.flags[si * 2] |= 1u64 << way;
        if write {
            self.flags[si * 2 + 1] |= 1u64 << way;
        } else {
            self.flags[si * 2 + 1] &= !(1u64 << way);
        }
        self.meta[i] = ColdMeta::filled(mode, now);

        // One counter-block write per access: every miss-path stat lands
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
        }
    }

    /// Looks a line up without changing any state.
    ///
    /// An empty mask is a valid (trivially unsuccessful) search.
    ///
    /// # Panics
    ///
    /// Panics if `mask` references ways beyond the geometry — the same
    /// validation [`SetAssocCache::access`] applies.
    pub fn probe(&self, line: u64, mask: WayMask) -> Option<BlockView> {
        self.check_mask_bounds(mask);
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let base = set as usize * self.ways as usize;
        let mut cand = self.valid_bits(set) & mask.bits();
        while cand != 0 {
            let way = cand.trailing_zeros();
            let i = base + way as usize;
            if self.tags[i] == tag {
                return Some(self.view(set, way));
            }
            cand &= cand - 1;
        }
        None
    }

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
    pub fn invalidate_at(&mut self, set: u64, way: u32) -> Option<EvictedBlock> {
        assert!(set < self.geom.sets() && way < self.ways);
        if self.valid_bits(set) & (1u64 << way) == 0 {
            return None;
        }
        let i = self.idx(set, way);
        let m = self.meta[i];
        let ev = EvictedBlock {
            line: self.line_from(self.tags[i], set),
            dirty: self.dirty_bits(set) & (1u64 << way) != 0,
            owner: m.owner(),
            inserted_at: m.inserted_at,
            last_touch: m.last_touch,
            last_write: m.last_write,
            access_count: m.access_count(),
        };
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

    /// Invalidates a line wherever it resides within `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `mask` references ways beyond the geometry (same
    /// validation as [`SetAssocCache::access`]; the empty mask is a
    /// trivially unsuccessful search).
    pub fn invalidate_line(&mut self, line: u64, mask: WayMask) -> Option<EvictedBlock> {
        self.check_mask_bounds(mask);
        let set = line & self.set_mask;
        let tag = line >> self.tag_shift;
        let base = set as usize * self.ways as usize;
        let mut cand = self.valid_bits(set) & mask.bits();
        while cand != 0 {
            let way = cand.trailing_zeros();
            if self.tags[base + way as usize] == tag {
                return self.invalidate_at(set, way);
            }
            cand &= cand - 1;
        }
        None
    }

    /// Evicts every valid block in `way` across all sets (used when a way
    /// is removed from a partition or power-gated). Dirty blocks are
    /// returned so the caller can write them back.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn drain_way(&mut self, way: u32) -> Vec<EvictedBlock> {
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
        SetAssocCache::new(geom, ReplacementPolicy::Lru)
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
        assert!(c.probe(20, left).is_some());
        assert!(c.probe(20, right).is_some());
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
    fn probe_does_not_mutate() {
        let mut c = small();
        c.access(7, true, Mode::User, 3, full());
        let before = *c.stats();
        let view = c.probe(7, full()).expect("resident");
        assert_eq!(view.line, 7);
        assert!(view.dirty);
        assert_eq!(view.owner, Mode::User);
        assert_eq!(before, *c.stats());
        assert!(c.probe(8, full()).is_none());
    }

    #[test]
    fn probe_accepts_empty_mask() {
        let mut c = small();
        c.access(7, false, Mode::User, 0, full());
        assert!(c.probe(7, WayMask::EMPTY).is_none());
        assert!(c.invalidate_line(7, WayMask::EMPTY).is_none());
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn probe_oversized_mask_panics_like_access() {
        let c = small();
        c.probe(7, WayMask::first(8));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn invalidate_line_oversized_mask_panics_like_access() {
        let mut c = small();
        c.invalidate_line(7, WayMask::first(8));
    }

    #[test]
    fn invalidate_line_returns_block() {
        let mut c = small();
        c.access(7, true, Mode::Kernel, 3, full());
        let ev = c.invalidate_line(7, full()).expect("was resident");
        assert!(ev.dirty);
        assert_eq!(ev.owner, Mode::Kernel);
        assert!(c.probe(7, full()).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.invalidate_line(7, full()).is_none());
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
        let v = c.probe(5, full()).expect("resident");
        assert_eq!(v.inserted_at, 100);
        assert_eq!(v.last_touch, 300);
        assert_eq!(v.access_count, 3);
        assert!(v.dirty);
    }

    #[test]
    fn evicted_block_carries_lifetime() {
        let mut c = small();
        c.access(set0_line(0), false, Mode::User, 10, full());
        c.access(set0_line(0), false, Mode::User, 20, full());
        for i in 1..=4 {
            c.access(set0_line(i), false, Mode::User, 100 + i, full());
        }
        // line 0 was LRU after the loop ran (it was touched last at 20).
        let mut evicted_line0 = None;
        let mut c2 = small();
        c2.access(set0_line(0), false, Mode::User, 10, full());
        c2.access(set0_line(0), false, Mode::User, 20, full());
        for i in 1..=4 {
            let r = c2.access(set0_line(i), false, Mode::User, 100 + i, full());
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
        // Silence unused warning on first cache.
        let _ = c.stats();
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
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(1, false, Mode::User, 0, full());
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(1, false, Mode::User, 1, full()).hit);
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
