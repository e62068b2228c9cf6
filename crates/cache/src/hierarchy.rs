//! First-level cache pair (L1I + L1D) filtering traffic toward the L2.
//!
//! The paper's designs operate on the L2; the L1s matter because they
//! *shape* the L2 request mix. User code has tight loops that the L1s
//! absorb well, while kernel bursts sweep larger, colder structures —
//! which is why the kernel's share of traffic grows from the raw trace to
//! the L2 (claim C1).

use moca_trace::{AccessKind, MemoryAccess, Mode};

use crate::cache::SetAssocCache;
use crate::config::{CacheGeometry, WayMask};
use crate::replacement::ReplacementPolicy;

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

/// An L1 instruction + data cache pair with a shared line size.
///
/// Write-back, write-allocate; both caches always use their full way mask
/// (partitioning applies only at the L2 in this system).
#[derive(Debug, Clone)]
pub struct L1Pair {
    icache: SetAssocCache,
    dcache: SetAssocCache,
    imask: WayMask,
    dmask: WayMask,
}

impl L1Pair {
    /// Creates the pair.
    ///
    /// # Panics
    ///
    /// Panics if the two geometries have different line sizes.
    pub fn new(igeom: CacheGeometry, dgeom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        assert_eq!(
            igeom.line_bytes(),
            dgeom.line_bytes(),
            "L1I and L1D must share a line size"
        );
        Self {
            imask: WayMask::first(igeom.ways()),
            dmask: WayMask::first(dgeom.ways()),
            icache: SetAssocCache::new(igeom, policy),
            dcache: SetAssocCache::new(dgeom, policy),
        }
    }

    /// Typical mobile L1s: 32 KiB, 2-way, 64 B lines, LRU.
    pub fn mobile_default() -> Self {
        let geom = CacheGeometry::new(32 << 10, 2, 64).expect("static geometry is valid");
        Self::new(geom, geom, ReplacementPolicy::Lru)
    }

    /// Line size shared by both caches.
    pub fn line_bytes(&self) -> u64 {
        self.icache.geometry().line_bytes()
    }

    /// The instruction cache.
    pub fn icache(&self) -> &SetAssocCache {
        &self.icache
    }

    /// The data cache.
    pub fn dcache(&self) -> &SetAssocCache {
        &self.dcache
    }

    /// Resets both caches' statistics.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
    }

    /// Bytes of heap memory both caches hold (see
    /// [`SetAssocCache::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.icache.heap_bytes() + self.dcache.heap_bytes()
    }

    /// Filters one access; returns the L2 traffic it generates.
    pub fn filter(&mut self, access: &MemoryAccess, now: u64) -> L1Outcome {
        let line = access.line(self.line_bytes());
        let (cache, mask) = if access.kind.is_ifetch() {
            (&mut self.icache, self.imask)
        } else {
            (&mut self.dcache, self.dmask)
        };
        let res = cache.access(line, access.kind.is_write(), access.mode, now, mask);
        if res.hit {
            return L1Outcome {
                hit: true,
                demand: None,
                writeback: None,
            };
        }
        let demand = Some(L2Request {
            line,
            write: false,
            mode: access.mode,
            cause: L2Cause::Demand(access.kind),
        });
        let writeback = res.victim.filter(|v| v.dirty).map(|v| L2Request {
            line: v.line,
            write: true,
            mode: v.owner,
            cause: L2Cause::Writeback,
        });
        L1Outcome {
            hit: false,
            demand,
            writeback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_trace::{AppProfile, TraceGenerator};

    fn acc(addr: u64, kind: AccessKind, mode: Mode) -> MemoryAccess {
        MemoryAccess::new(addr, 0x400, kind, mode)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut l1 = L1Pair::mobile_default();
        let a = acc(0x1000, AccessKind::Load, Mode::User);
        let o1 = l1.filter(&a, 0);
        assert!(!o1.hit);
        let d = o1.demand.expect("demand on miss");
        assert_eq!(d.line, 0x1000 / 64);
        assert_eq!(d.cause, L2Cause::Demand(AccessKind::Load));
        assert!(!d.write);
        let o2 = l1.filter(&a, 1);
        assert!(o2.hit);
        assert!(o2.demand.is_none() && o2.writeback.is_none());
    }

    #[test]
    fn ifetch_and_data_use_separate_caches() {
        let mut l1 = L1Pair::mobile_default();
        let load = acc(0x2000, AccessKind::Load, Mode::User);
        let fetch = acc(0x2000, AccessKind::InstrFetch, Mode::User);
        assert!(!l1.filter(&load, 0).hit);
        // Same address as an ifetch still misses: different cache.
        assert!(!l1.filter(&fetch, 1).hit);
        assert_eq!(l1.icache().stats().misses(), 1);
        assert_eq!(l1.dcache().stats().misses(), 1);
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        // 32 KiB 2-way 64 B: 256 sets. Lines that conflict: step by 256.
        let mut l1 = L1Pair::mobile_default();
        let store = acc(0, AccessKind::Store, Mode::User);
        l1.filter(&store, 0);
        // Two more loads to the same set evict the dirty line.
        let mut wb = None;
        for i in 1..=2u64 {
            let a = acc(i * 256 * 64, AccessKind::Load, Mode::User);
            let o = l1.filter(&a, i);
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
        let mut l1 = L1Pair::mobile_default();
        // Kernel dirties a line; user traffic evicts it.
        let kstore = acc(0, AccessKind::Store, Mode::Kernel);
        l1.filter(&kstore, 0);
        let mut wb = None;
        for i in 1..=2u64 {
            let a = acc(i * 256 * 64, AccessKind::Load, Mode::User);
            let o = l1.filter(&a, i);
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
        let mut l1 = L1Pair::mobile_default();
        let trace: Vec<_> = TraceGenerator::new(&AppProfile::browser(), 5)
            .take(400_000)
            .collect();
        let raw_kernel =
            trace.iter().filter(|a| a.mode == Mode::Kernel).count() as f64 / trace.len() as f64;
        let mut l2_total = 0u64;
        let mut l2_kernel = 0u64;
        for (i, a) in trace.iter().enumerate() {
            let o = l1.filter(a, i as u64);
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
    #[should_panic(expected = "share a line size")]
    fn mismatched_line_sizes_rejected() {
        let a = CacheGeometry::new(32 << 10, 2, 64).expect("valid");
        let b = CacheGeometry::new(32 << 10, 2, 32).expect("valid");
        L1Pair::new(a, b, ReplacementPolicy::Lru);
    }
}
