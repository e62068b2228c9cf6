//! Hybrid SRAM / STT-RAM L2 with write-intensity-aware placement.
//!
//! A well-known alternative to the paper's homogeneous STT-RAM designs:
//! keep a few SRAM ways for *write-hot* blocks and fill everything else
//! into dense, low-leakage STT-RAM ways, steering blocks with a small
//! write-history table (WHT). [`HybridL2`] executes
//! [`L2Design::HybridStt`]; the A3 extension experiment compares it
//! against the all-SRAM baseline and an all-STT-RAM cache to show where
//! the paper's multi-retention approach stands.
//!
//! Scope: the hybrid is mode-agnostic (no user/kernel partitioning) and
//! requires a non-volatile STT retention class — it isolates the *write
//! energy* question from the retention/partitioning questions studied by
//! [`MobileL2`](crate::mobile_l2::MobileL2).

use moca_cache::stats::CacheStats;
use moca_cache::{L2Request, SetAssocCache, WayMask};
use moca_energy::{
    EnergyAccountant, EnergyBreakdown, MemoryTechnology, SramBank, SttRamBank, Technology, Time,
};

use crate::design::{DesignError, L2BaseParams, L2Design, CLOCK_GHZ, LINE_BYTES};
use crate::mobile_l2::{L2Response, TrafficCounters};

/// Number of entries in the write-history table (direct-mapped).
const WHT_ENTRIES: usize = 4096;
/// Saturating-counter ceiling.
const WHT_MAX: u8 = 3;
/// Counter value at or above which a block is predicted write-hot.
const WHT_HOT: u8 = 2;
/// Write hits in STT needed before a block migrates to SRAM.
const MIGRATE_AFTER: u8 = 2;

/// Placement/migration counters of a [`HybridL2`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Fills steered into the SRAM ways (predicted write-hot).
    pub sram_fills: u64,
    /// Fills steered into the STT-RAM ways.
    pub stt_fills: u64,
    /// Blocks migrated STT → SRAM after repeated writes.
    pub migrations: u64,
    /// Writes absorbed by the SRAM ways (the energy win).
    pub sram_writes: u64,
    /// Writes that still hit STT-RAM.
    pub stt_writes: u64,
}

impl HybridStats {
    /// Fraction of writes absorbed by SRAM (`0.0` when no writes).
    pub fn sram_write_share(&self) -> f64 {
        let total = self.sram_writes + self.stt_writes;
        if total == 0 {
            0.0
        } else {
            self.sram_writes as f64 / total as f64
        }
    }
}

/// Index of the SRAM partition in [`HybridL2`]'s partitions.
const SRAM: usize = 0;
/// Index of the STT-RAM partition.
const STT: usize = 1;

/// One partition of the hybrid array: its ways, bank and latencies.
#[derive(Debug, Clone)]
struct Partition {
    mask: WayMask,
    acct: EnergyAccountant,
    read_latency: u64,
    write_latency: u64,
}

/// A shared hybrid L2: `sram_ways` SRAM + `stt_ways` STT-RAM in one
/// physical array.
#[derive(Debug, Clone)]
pub struct HybridL2 {
    cache: SetAssocCache,
    /// The SRAM ways, then the STT-RAM ways.
    parts: [Partition; 2],
    /// Direct-mapped write-history counters, indexed by line hash.
    wht: Vec<u8>,
    /// Per-resident-block STT write streak (indexed like the cache).
    stt_write_streak: Vec<u8>,
    stats: HybridStats,
    traffic: TrafficCounters,
    /// Cycle at which the partitions' banks were last charged leakage.
    live_since: u64,
}

impl HybridL2 {
    /// Builds a [`L2Design::HybridStt`] design.
    ///
    /// # Errors
    ///
    /// Returns the [`DesignError`] of [`L2Design::validate`] (an empty
    /// partition, more than 64 ways, a volatile retention class — see
    /// module docs), [`DesignError::OtherEngine`] for any other design, or
    /// [`DesignError::Geometry`] if `params` give no valid geometry.
    pub fn new(design: L2Design, params: L2BaseParams) -> Result<Self, DesignError> {
        design.validate()?;
        let L2Design::HybridStt {
            sram_ways,
            stt_ways,
            retention,
        } = design
        else {
            return Err(DesignError::OtherEngine);
        };
        let total = design.physical_ways();
        let geom = moca_cache::CacheGeometry::from_sets(params.sets, total, LINE_BYTES)
            .map_err(DesignError::Geometry)?;
        let bytes = |ways: u32| params.way_bytes() * u64::from(ways);
        let part = |mask, tech: Technology| Partition {
            mask,
            read_latency: tech.read_latency().cycles(CLOCK_GHZ).max(1),
            write_latency: tech.write_latency().cycles(CLOCK_GHZ).max(1),
            acct: EnergyAccountant::new(tech),
        };
        let sram = SramBank::new(bytes(sram_ways), sram_ways);
        let stt = SttRamBank::new(bytes(stt_ways), stt_ways, retention);
        Ok(Self {
            cache: SetAssocCache::new(geom),
            parts: [
                part(WayMask::first(sram_ways), Technology::Sram(sram)),
                part(WayMask::range(sram_ways, total), Technology::SttRam(stt)),
            ],
            wht: vec![0; WHT_ENTRIES],
            stt_write_streak: vec![0; (params.sets as usize) * total as usize],
            stats: HybridStats::default(),
            traffic: TrafficCounters::default(),
            live_since: 0,
        })
    }

    fn wht_index(line: u64) -> usize {
        // Fibonacci hash of the line address.
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize % WHT_ENTRIES
    }

    fn streak_idx(&self, set: u64, way: u32) -> usize {
        set as usize * self.cache.geometry().ways() as usize + way as usize
    }

    /// Processes one request at cycle `now`.
    pub fn request(&mut self, req: &L2Request, now: u64) -> L2Response {
        let set = self.cache.geometry().set_of_line(req.line);
        let wht = Self::wht_index(req.line);
        let full = self.parts[SRAM].mask.union(self.parts[STT].mask);

        // One lookup over both partitions (one array, both masks).
        if let Some(way) = self.cache.lookup(req.line, full) {
            self.cache.hit_at(set, way, req.write, req.mode, now);
            let p = if self.parts[SRAM].mask.contains(way) {
                SRAM
            } else {
                STT
            };
            let part = &mut self.parts[p];
            let hit = L2Response {
                hit: true,
                latency_cycles: part.read_latency,
                dram_read: false,
            };
            if !req.write {
                part.acct.record_reads(1);
                return hit;
            }
            part.acct.record_writes(1);
            let latency_cycles = part.write_latency;
            self.wht[wht] = (self.wht[wht] + 1).min(WHT_MAX);
            if p == SRAM {
                self.stats.sram_writes += 1;
            } else {
                self.stats.stt_writes += 1;
                // Track the write streak; migrate write-hot blocks.
                let si = self.streak_idx(set, way);
                self.stt_write_streak[si] = self.stt_write_streak[si].saturating_add(1);
                if self.stt_write_streak[si] >= MIGRATE_AFTER {
                    self.migrate_to_sram(set, way, now);
                }
            }
            return L2Response {
                latency_cycles,
                ..hit
            };
        }

        // Miss: steer the fill by predicted write intensity, straight into
        // that partition's ways.
        let p = if self.wht[wht] >= WHT_HOT || req.write {
            SRAM
        } else {
            STT
        };
        let result = self
            .cache
            .fill(req.line, req.write, req.mode, now, self.parts[p].mask);
        self.traffic.dram_reads += 1;
        let si = self.streak_idx(set, result.way);
        self.stt_write_streak[si] = 0;
        if p == SRAM {
            self.stats.sram_fills += 1;
        } else {
            self.stats.stt_fills += 1;
        }
        let part = &mut self.parts[p];
        part.acct.record_reads(1);
        part.acct.record_writes(1);
        if result.victim.is_some_and(|v| v.dirty) {
            part.acct.record_reads(1);
            self.traffic.dram_writes += 1;
        }
        L2Response {
            hit: false,
            latency_cycles: part.read_latency,
            dram_read: true,
        }
    }

    /// Moves a write-hot block from an STT way into the SRAM partition.
    fn migrate_to_sram(&mut self, set: u64, way: u32, now: u64) {
        let Some(ev) = self.cache.invalidate_at(set, way) else {
            return;
        };
        // Read out of STT, write into SRAM.
        self.parts[STT].acct.record_reads(1);
        // A line is resident at most once in the array, so it is absent
        // from the SRAM ways.
        let sram = self.parts[SRAM].mask;
        let result = self.cache.fill(ev.line, ev.dirty, ev.owner, now, sram);
        self.parts[SRAM].acct.record_writes(1);
        if result.victim.is_some_and(|v| v.dirty) {
            self.parts[SRAM].acct.record_reads(1);
            self.traffic.dram_writes += 1;
        }
        let si = self.streak_idx(set, way);
        self.stt_write_streak[si] = 0;
        self.stats.migrations += 1;
    }

    /// Charges each partition's counts and its bank's leakage up to
    /// `now`; call once after the last request.
    pub fn finalize(&mut self, now: u64) {
        let live = Time::from_cycles(now.saturating_sub(self.live_since), CLOCK_GHZ);
        for part in &mut self.parts {
            part.acct.settle(live);
        }
        self.live_since = now;
    }

    /// Cache statistics. Note: migrations perform internal accesses, so
    /// `accesses()` slightly exceeds the external request count.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Placement/migration counters.
    pub fn hybrid_stats(&self) -> HybridStats {
        self.stats
    }

    /// Merged energy breakdown.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        for part in &self.parts {
            e.merge(&part.acct.breakdown());
        }
        e
    }

    /// DRAM traffic so far.
    pub fn traffic(&self) -> TrafficCounters {
        self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_cache::L2Cause;
    use moca_energy::RetentionClass;
    use moca_trace::{AccessKind, Mode};

    fn req(line: u64, write: bool) -> L2Request {
        L2Request {
            line,
            write,
            mode: Mode::User,
            cause: if write {
                L2Cause::Writeback
            } else {
                L2Cause::Demand(AccessKind::Load)
            },
        }
    }

    fn hybrid(sram_ways: u32, stt_ways: u32, retention: RetentionClass) -> L2Design {
        L2Design::HybridStt {
            sram_ways,
            stt_ways,
            retention,
        }
    }

    fn mk() -> HybridL2 {
        let design = hybrid(2, 14, RetentionClass::TenYears);
        HybridL2::new(design, L2BaseParams::default()).expect("valid")
    }

    #[test]
    fn read_fills_go_to_stt_write_fills_to_sram() {
        let mut l2 = mk();
        l2.request(&req(1, false), 0);
        l2.request(&req(2, true), 10);
        let s = l2.hybrid_stats();
        assert_eq!(s.stt_fills, 1);
        assert_eq!(s.sram_fills, 1);
    }

    #[test]
    fn hit_works_across_partitions() {
        let mut l2 = mk();
        l2.request(&req(1, false), 0); // fill into STT
        let r = l2.request(&req(1, false), 10);
        assert!(r.hit);
        assert!(r.latency_cycles > 0);
    }

    #[test]
    fn repeated_writes_trigger_migration() {
        let mut l2 = mk();
        l2.request(&req(1, false), 0); // STT fill (cold WHT)
        l2.request(&req(1, true), 10); // STT write streak 1
        l2.request(&req(1, true), 20); // streak 2 → migrate
        let s = l2.hybrid_stats();
        assert_eq!(s.migrations, 1, "{s:?}");
        // Subsequent writes hit SRAM.
        l2.request(&req(1, true), 30);
        assert!(l2.hybrid_stats().sram_writes > 0);
    }

    #[test]
    fn wht_learns_write_hot_lines() {
        let mut l2 = mk();
        let sets = L2BaseParams::default().sets;
        let (hot, cold) = (42u64, 43u64);
        assert_ne!(HybridL2::wht_index(hot), HybridL2::wht_index(cold));
        let mut now = 0;
        let mut send = |l2: &mut HybridL2, line: u64, write: bool| {
            now += 10;
            l2.request(&req(line, write), now);
        };
        // Both lines enter SRAM on a write miss; only `hot` then takes
        // the write hits that train its WHT slot.
        send(&mut l2, hot, true);
        send(&mut l2, cold, true);
        for _ in 0..WHT_HOT {
            send(&mut l2, hot, true);
        }
        // Two more write fills per set push each line out of the 2-way
        // SRAM partition (write misses always fill SRAM).
        let full = l2.parts[SRAM].mask.union(l2.parts[STT].mask);
        for line in [hot, cold] {
            for k in 1..=2 {
                send(&mut l2, line + k * sets, true);
            }
            assert!(l2.cache.lookup(line, full).is_none(), "line {line} evicted");
        }
        // Read refills: the trained line is predicted write-hot and lands
        // in SRAM; the untrained control lands in STT-RAM.
        let before = l2.hybrid_stats();
        send(&mut l2, hot, false);
        let after = l2.hybrid_stats();
        assert_eq!(after.sram_fills, before.sram_fills + 1);
        assert!(l2.cache.lookup(hot, l2.parts[SRAM].mask).is_some());
        send(&mut l2, cold, false);
        assert_eq!(l2.hybrid_stats().stt_fills, after.stt_fills + 1);
        assert!(l2.cache.lookup(cold, l2.parts[STT].mask).is_some());
    }

    #[test]
    fn energy_has_both_components() {
        let mut l2 = mk();
        for i in 0..2000u64 {
            l2.request(&req(i % 300, i % 4 == 0), i * 10);
        }
        l2.finalize(30_000);
        let e = l2.energy();
        assert!(e.total().nj() > 0.0);
        assert!(e.leakage.nj() > 0.0);
        assert!(l2.traffic().dram_reads > 0);
    }

    #[test]
    fn rejects_bad_configs() {
        let p = L2BaseParams::default();
        let nv = RetentionClass::TenYears;
        assert!(HybridL2::new(hybrid(0, 14, nv), p).is_err());
        assert!(HybridL2::new(hybrid(2, 0, nv), p).is_err());
        assert!(HybridL2::new(hybrid(40, 40, nv), p).is_err());
        assert_eq!(
            HybridL2::new(L2Design::baseline(), p).unwrap_err(),
            DesignError::OtherEngine
        );
    }

    #[test]
    fn rejects_volatile_retention() {
        assert_eq!(
            HybridL2::new(
                hybrid(2, 14, RetentionClass::TenMillis),
                L2BaseParams::default()
            )
            .unwrap_err(),
            DesignError::VolatileHybrid
        );
    }

    #[test]
    fn sram_absorbs_most_writes_on_write_hot_streams() {
        let mut l2 = mk();
        // A small, write-heavy working set.
        for i in 0..20_000u64 {
            l2.request(&req(i % 64, i % 2 == 0), i * 5);
        }
        let share = l2.hybrid_stats().sram_write_share();
        assert!(
            share > 0.8,
            "SRAM should absorb write-hot lines, got {share:.2}"
        );
    }
}
