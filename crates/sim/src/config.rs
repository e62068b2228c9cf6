//! Full-system configuration (T1 of the reproduced evaluation).

use moca_cache::{CacheGeometry, GeometryError};
use moca_energy::Energy;

/// Parameters of everything around the L2: core clock, L1 pair, DRAM.
///
/// Every cache in the system, the L1 pair and each L2 segment, is LRU,
/// as on the paper's platform, so no field picks a replacement policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Base cycles charged per memory reference (covers issue plus the
    /// average non-memory instructions between references of an in-order
    /// mobile core).
    pub base_cycles_per_ref: f64,
    /// L1 instruction cache capacity in bytes.
    pub l1i_bytes: u64,
    /// L1 data cache capacity in bytes.
    pub l1d_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Line size across the hierarchy.
    pub line_bytes: u64,
    /// DRAM access latency in cycles.
    pub dram_latency_cycles: u64,
    /// DRAM energy per line read.
    pub dram_read_energy: Energy,
    /// DRAM energy per line write.
    pub dram_write_energy: Energy,
    /// Enable the L2 next-line prefetcher
    /// (see [`moca_core::L2BaseParams::next_line_prefetch`]).
    pub l2_next_line_prefetch: bool,
}

impl Default for SystemConfig {
    /// The paper-era mobile platform: 1 GHz in-order core, 32 KiB 2-way
    /// L1s, 64 B lines, 120-cycle LPDDR access.
    fn default() -> Self {
        Self {
            clock_ghz: 1.0,
            base_cycles_per_ref: 1.5,
            l1i_bytes: 32 << 10,
            l1d_bytes: 32 << 10,
            l1_ways: 2,
            line_bytes: 64,
            dram_latency_cycles: 120,
            dram_read_energy: Energy::from_nj(20.0),
            dram_write_energy: Energy::from_nj(22.0),
            l2_next_line_prefetch: false,
        }
    }
}

impl SystemConfig {
    /// Geometry of the L1 instruction cache.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the configured sizes are inconsistent.
    pub fn l1i_geometry(&self) -> Result<CacheGeometry, GeometryError> {
        CacheGeometry::new(self.l1i_bytes, self.l1_ways, self.line_bytes)
    }

    /// Geometry of the L1 data cache.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if the configured sizes are inconsistent.
    pub fn l1d_geometry(&self) -> Result<CacheGeometry, GeometryError> {
        CacheGeometry::new(self.l1d_bytes, self.l1_ways, self.line_bytes)
    }

    /// Renders the configuration table (T1).
    pub fn describe(&self) -> String {
        format!(
            "core: {} GHz in-order, {} base cycles/ref\n\
             L1I/L1D: {} KiB / {} KiB, {}-way, {} B lines\n\
             DRAM: {} cycles, {} per read, {} per write",
            self.clock_ghz,
            self.base_cycles_per_ref,
            self.l1i_bytes >> 10,
            self.l1d_bytes >> 10,
            self.l1_ways,
            self.line_bytes,
            self.dram_latency_cycles,
            self.dram_read_energy,
            self.dram_write_energy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometries_are_valid() {
        let cfg = SystemConfig::default();
        let gi = cfg.l1i_geometry().expect("l1i");
        let gd = cfg.l1d_geometry().expect("l1d");
        assert_eq!(gi.capacity_bytes(), 32 << 10);
        assert_eq!(gd.ways(), 2);
    }

    #[test]
    fn describe_mentions_key_parameters() {
        let d = SystemConfig::default().describe();
        assert!(d.contains("1 GHz"));
        assert!(d.contains("32 KiB"));
        assert!(d.contains("120 cycles"));
    }

    #[test]
    fn bad_geometry_is_reported() {
        let cfg = SystemConfig {
            l1i_bytes: 1000, // not divisible into 2-way 64B sets
            ..SystemConfig::default()
        };
        assert!(cfg.l1i_geometry().is_err());
    }
}
