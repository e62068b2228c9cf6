//! First-level cache pair (L1I + L1D) filtering traffic toward the L2.
//!
//! The paper's designs operate on the L2; the L1s matter because they
//! *shape* the L2 request mix. User code has tight loops that the L1s
//! absorb well, while kernel bursts sweep larger, colder structures —
//! which is why the kernel's share of traffic grows from the raw trace to
//! the L2 (claim C1).

use moca_trace::{AccessKind, MemoryAccess, Mode};

use crate::config::CacheGeometry;
use crate::mrc::{shift_down, LruStackCore, Touch};
use crate::stats::CacheStats;

/// Replacement policy argument of [`L1Pair::new`]. Every cache in this
/// crate is LRU; the one-variant enum is kept only because the
/// `reprobench` probe, which lives outside the workspace, names it.
#[derive(Debug, Clone, Copy)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    Lru,
}

/// Why an L2 request was generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Cause {
    /// Demand fetch caused by an L1 miss.
    Demand(AccessKind),
    /// Writeback of a dirty L1 victim.
    Writeback,
}

/// A request sent from the L1 level to the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Request {
    /// Line address (byte address / line size).
    pub line: u64,
    /// `true` if the L2 copy must be marked dirty (writebacks).
    pub write: bool,
    /// Privilege mode attributed to the request. Demand requests carry the
    /// requesting mode; writebacks carry the mode that owned the L1 block.
    pub mode: Mode,
    /// What produced the request.
    pub cause: L2Cause,
}

/// Result of filtering one access through the L1 pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Outcome {
    /// Whether the access hit in its L1.
    pub hit: bool,
    /// Demand request toward the L2 (present iff `!hit`).
    pub demand: Option<L2Request>,
    /// Writeback toward the L2 (dirty L1 victim), if any.
    pub writeback: Option<L2Request>,
}

/// Entry byte flag: the line is dirty.
const DIRTY: u8 = 1;
/// Entry byte flag: the line was filled by a kernel-mode access.
const KERNEL: u8 = 2;

/// One L1 array: a write-back, write-allocate LRU cache kept as one
/// MRU-ordered tag stack per set ([`LruStackCore`]) plus one byte per
/// stack entry for its dirty bit and owner mode. An entry is valid iff
/// it lies within its stack's length.
///
/// Its hits, victims and [`CacheStats`] equal a
/// [`SetAssocCache`](crate::cache::SetAssocCache) under LRU with the full
/// way mask (`crates/cache/tests/l1_differential.rs`). It keeps no
/// timestamps: an L1 decision never depends on time.
#[derive(Debug, Clone)]
struct LruArray {
    stacks: LruStackCore,
    /// Entry bytes, stack-major like the stacks' tags.
    flags: Vec<u8>,
    ways: usize,
    set_mask: u64,
    tag_shift: u32,
    stats: CacheStats,
}

impl LruArray {
    fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets() as usize;
        let ways = geom.ways() as usize;
        LruArray {
            stacks: LruStackCore::new(sets, ways),
            flags: vec![0; sets * ways],
            ways,
            set_mask: geom.sets() - 1,
            tag_shift: geom.sets().trailing_zeros(),
            stats: CacheStats::new(),
        }
    }

    /// Filters `access`, whose line is `line`, through this array.
    #[inline]
    fn filter(&mut self, line: u64, access: &MemoryAccess) -> L1Outcome {
        let (write, mode) = (access.kind.is_write(), access.mode);
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        let c = &mut self.stats.by_mode[mode.index()];
        c.writes += u64::from(write);
        let dirty = if write { DIRTY } else { 0 };
        match self.stacks.access(set, line >> self.tag_shift) {
            Touch::Hit(pos) => {
                c.hits += 1;
                let entries = &mut self.flags[base..=base + pos as usize];
                let hit = entries[pos as usize];
                shift_down(entries);
                entries[0] = hit | dirty;
                L1Outcome {
                    hit: true,
                    demand: None,
                    writeback: None,
                }
            }
            Touch::Miss(victim) => {
                c.misses += 1;
                c.fills += 1;
                let entries = &mut self.flags[base..base + self.stacks.len(set)];
                // The victim's entry, when the stack was full.
                let evicted = entries[entries.len() - 1];
                shift_down(entries);
                entries[0] = dirty | if mode == Mode::Kernel { KERNEL } else { 0 };
                L1Outcome {
                    hit: false,
                    demand: Some(L2Request {
                        line,
                        write: false,
                        mode,
                        cause: L2Cause::Demand(access.kind),
                    }),
                    writeback: victim.and_then(|tag| self.evict(tag, evicted, set, mode)),
                }
            }
        }
    }

    /// Counts the eviction of `tag` (entry byte `entry`) from `set` by a
    /// `mode` fill; returns its writeback if it was dirty.
    fn evict(&mut self, tag: u64, entry: u8, set: usize, mode: Mode) -> Option<L2Request> {
        let owner = if entry & KERNEL != 0 {
            Mode::Kernel
        } else {
            Mode::User
        };
        if owner == mode {
            self.stats.same_evictions[owner.index()] += 1;
        } else {
            self.stats.cross_evictions[owner.index()] += 1;
        }
        if entry & DIRTY == 0 {
            return None;
        }
        self.stats.by_mode[mode.index()].writebacks += 1;
        Some(L2Request {
            line: (tag << self.tag_shift) | set as u64,
            write: true,
            mode: owner,
            cause: L2Cause::Writeback,
        })
    }
}

/// An L1 instruction + data cache pair with a shared line size.
///
/// Write-back, write-allocate, LRU; partitioning applies only at the L2
/// in this system, so both caches always use every way.
#[derive(Debug, Clone)]
pub struct L1Pair {
    icache: LruArray,
    dcache: LruArray,
    line_shift: u32,
}

impl L1Pair {
    /// Creates the pair.
    ///
    /// # Panics
    ///
    /// Panics if the two geometries have different line sizes.
    pub fn from_geometries(igeom: CacheGeometry, dgeom: CacheGeometry) -> Self {
        assert_eq!(
            igeom.line_bytes(),
            dgeom.line_bytes(),
            "L1I and L1D must share a line size"
        );
        Self {
            icache: LruArray::new(igeom),
            dcache: LruArray::new(dgeom),
            line_shift: igeom.line_bytes().trailing_zeros(),
        }
    }

    /// [`L1Pair::from_geometries`] under the policy-taking signature the
    /// out-of-workspace `reprobench` probe builds against; kept only for
    /// that probe.
    ///
    /// # Panics
    ///
    /// Panics if the geometries have different line sizes.
    pub fn new(igeom: CacheGeometry, dgeom: CacheGeometry, _policy: ReplacementPolicy) -> Self {
        Self::from_geometries(igeom, dgeom)
    }

    /// Line size shared by both caches.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// The instruction cache's statistics.
    pub fn icache(&self) -> &CacheStats {
        &self.icache.stats
    }

    /// The data cache's statistics.
    pub fn dcache(&self) -> &CacheStats {
        &self.dcache.stats
    }

    /// Both caches' statistics, merged: what a system report reads, and
    /// all a replayed run keeps of the pair.
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.icache.stats;
        stats.merge(&self.dcache.stats);
        stats
    }

    /// Filters one access; returns the L2 traffic it generates.
    #[inline]
    pub fn access(&mut self, access: &MemoryAccess) -> L1Outcome {
        let line = access.addr >> self.line_shift;
        if access.kind.is_ifetch() {
            self.icache.filter(line, access)
        } else {
            self.dcache.filter(line, access)
        }
    }

    /// [`L1Pair::access`] under the timestamped signature the
    /// out-of-workspace `reprobench` probe builds against; kept only for
    /// that probe. `_now` is ignored, because the pair keeps no
    /// timestamps.
    pub fn filter(&mut self, access: &MemoryAccess, _now: u64) -> L1Outcome {
        self.access(access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_trace::{AppProfile, TraceGenerator};

    fn acc(addr: u64, kind: AccessKind, mode: Mode) -> MemoryAccess {
        MemoryAccess::new(addr, 0x400, kind, mode)
    }

    /// 32 KiB, 2-way, 64 B lines: a typical mobile L1.
    fn geom() -> CacheGeometry {
        CacheGeometry::new(32 << 10, 2, 64).expect("valid")
    }

    fn pair() -> L1Pair {
        L1Pair::from_geometries(geom(), geom())
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut l1 = pair();
        let a = acc(0x1000, AccessKind::Load, Mode::User);
        let o1 = l1.access(&a);
        assert!(!o1.hit);
        let d = o1.demand.expect("demand on miss");
        assert_eq!(d.line, 0x1000 / 64);
        assert_eq!(d.cause, L2Cause::Demand(AccessKind::Load));
        assert!(!d.write);
        let o2 = l1.access(&a);
        assert!(o2.hit);
        assert!(o2.demand.is_none() && o2.writeback.is_none());
    }

    #[test]
    fn ifetch_and_data_use_separate_caches() {
        let mut l1 = pair();
        let load = acc(0x2000, AccessKind::Load, Mode::User);
        let fetch = acc(0x2000, AccessKind::InstrFetch, Mode::User);
        assert!(!l1.access(&load).hit);
        // Same address as an ifetch still misses: different cache.
        assert!(!l1.access(&fetch).hit);
        assert_eq!(l1.icache().misses(), 1);
        assert_eq!(l1.dcache().misses(), 1);
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        // 32 KiB 2-way 64 B: 256 sets. Lines that conflict: step by 256.
        let mut l1 = pair();
        let store = acc(0, AccessKind::Store, Mode::User);
        l1.access(&store);
        // Two more loads to the same set evict the dirty line.
        let mut wb = None;
        for i in 1..=2u64 {
            let a = acc(i * 256 * 64, AccessKind::Load, Mode::User);
            let o = l1.access(&a);
            if o.writeback.is_some() {
                wb = o.writeback;
            }
        }
        let wb = wb.expect("dirty line must be written back");
        assert!(wb.write);
        assert_eq!(wb.line, 0);
        assert_eq!(wb.cause, L2Cause::Writeback);
        assert_eq!(wb.mode, Mode::User);
    }

    #[test]
    fn writeback_carries_owner_mode() {
        let mut l1 = pair();
        // Kernel dirties a line; user traffic evicts it.
        let kstore = acc(0, AccessKind::Store, Mode::Kernel);
        l1.access(&kstore);
        let mut wb = None;
        for i in 1..=2u64 {
            let a = acc(i * 256 * 64, AccessKind::Load, Mode::User);
            let o = l1.access(&a);
            if o.writeback.is_some() {
                wb = o.writeback;
            }
        }
        assert_eq!(wb.expect("writeback").mode, Mode::Kernel);
    }

    #[test]
    fn l1_filters_user_traffic_harder_than_kernel() {
        // The kernel-share amplification effect (claim C1): the post-L1
        // kernel share must exceed the raw-trace kernel share.
        let mut l1 = pair();
        let trace: Vec<_> = TraceGenerator::new(&AppProfile::browser(), 5)
            .take(400_000)
            .collect();
        let raw_kernel =
            trace.iter().filter(|a| a.mode == Mode::Kernel).count() as f64 / trace.len() as f64;
        let mut l2_total = 0u64;
        let mut l2_kernel = 0u64;
        for a in &trace {
            let o = l1.access(a);
            for req in [o.demand, o.writeback].into_iter().flatten() {
                l2_total += 1;
                if req.mode == Mode::Kernel {
                    l2_kernel += 1;
                }
            }
        }
        let l2_share = l2_kernel as f64 / l2_total as f64;
        assert!(
            l2_share > raw_kernel,
            "L1 filtering should amplify kernel share ({l2_share:.3} vs raw {raw_kernel:.3})"
        );
    }

    #[test]
    fn policy_and_timestamp_signatures_are_the_lru_pair() {
        let mut old = L1Pair::new(geom(), geom(), ReplacementPolicy::Lru);
        let mut l1 = pair();
        let trace = TraceGenerator::new(&AppProfile::game(), 3).take(20_000);
        for (i, a) in trace.enumerate() {
            assert_eq!(old.filter(&a, i as u64), l1.access(&a));
        }
        assert_eq!(old.icache(), l1.icache());
        assert_eq!(old.dcache(), l1.dcache());
    }

    #[test]
    #[should_panic(expected = "share a line size")]
    fn mismatched_line_sizes_rejected() {
        let a = CacheGeometry::new(32 << 10, 2, 64).expect("valid");
        let b = CacheGeometry::new(32 << 10, 2, 32).expect("valid");
        L1Pair::from_geometries(a, b);
    }
}
