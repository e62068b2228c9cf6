//! Full-system configuration (T1 of the reproduced evaluation).
//!
//! The paper runs every L2 design on one platform, so everything around
//! the L2 is a constant stated here once, next to the line size and
//! clock of [`moca_core`]: a 1 GHz in-order core, 32 KiB 2-way L1s,
//! 64 B lines and a 120-cycle LPDDR. Only the L2 varies, plus the one
//! platform switch A5 studies, [`SystemConfig::l2_next_line_prefetch`].

use moca_cache::{CacheGeometry, GeometryError};
use moca_core::{CLOCK_GHZ, LINE_BYTES};
use moca_energy::Energy;

/// Base cycles charged per memory reference: issue plus the average
/// non-memory instructions between references of an in-order mobile
/// core.
pub const BASE_CYCLES_PER_REF: f64 = 1.5;

/// DRAM access latency in cycles.
pub const DRAM_LATENCY_CYCLES: u64 = 120;

/// DRAM energy per line read.
pub const DRAM_READ_ENERGY: Energy = Energy::from_nj(20.0);

/// DRAM energy per line write.
pub const DRAM_WRITE_ENERGY: Energy = Energy::from_nj(22.0);

/// L1 associativity.
const L1_WAYS: u32 = 2;

/// Geometry of the L1 instruction cache: 32 KiB.
pub const L1I_GEOMETRY: CacheGeometry = l1_geometry(32 << 10);

/// Geometry of the L1 data cache: 32 KiB.
pub const L1D_GEOMETRY: CacheGeometry = l1_geometry(32 << 10);

/// An [`L1_WAYS`]-way L1 of `bytes`, checked while the crate compiles:
/// only the two constants above call it, so an inconsistent size fails
/// the build and never reaches a run.
const fn l1_geometry(bytes: u64) -> CacheGeometry {
    match CacheGeometry::new(bytes, L1_WAYS, LINE_BYTES) {
        Ok(geometry) => geometry,
        Err(_) => panic!("inconsistent T1 L1 geometry"),
    }
}

/// The one platform setting an experiment changes.
///
/// Every cache in the system, the L1 pair and each L2 segment, is LRU,
/// as on the paper's platform, so no field picks a replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemConfig {
    /// Enable the L2 next-line prefetcher
    /// (see [`moca_core::L2BaseParams::next_line_prefetch`]).
    pub l2_next_line_prefetch: bool,
}

impl SystemConfig {
    /// Geometry of the L1 instruction cache, [`L1I_GEOMETRY`].
    ///
    /// # Errors
    ///
    /// Never: the geometry is checked at compile time.
    pub fn l1i_geometry(&self) -> Result<CacheGeometry, GeometryError> {
        Ok(L1I_GEOMETRY)
    }

    /// Geometry of the L1 data cache, [`L1D_GEOMETRY`].
    ///
    /// # Errors
    ///
    /// Never: the geometry is checked at compile time.
    pub fn l1d_geometry(&self) -> Result<CacheGeometry, GeometryError> {
        Ok(L1D_GEOMETRY)
    }

    /// Renders the configuration table (T1).
    pub fn describe(&self) -> String {
        format!(
            "core: {CLOCK_GHZ} GHz in-order, {BASE_CYCLES_PER_REF} base cycles/ref\n\
             L1I/L1D: {} KiB / {} KiB, {L1_WAYS}-way, {LINE_BYTES} B lines\n\
             DRAM: {DRAM_LATENCY_CYCLES} cycles, {DRAM_READ_ENERGY} per read, \
             {DRAM_WRITE_ENERGY} per write",
            L1I_GEOMETRY.capacity_bytes() >> 10,
            L1D_GEOMETRY.capacity_bytes() >> 10,
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
        assert_eq!(
            SystemConfig::default().describe(),
            "core: 1 GHz in-order, 1.5 base cycles/ref\n\
             L1I/L1D: 32 KiB / 32 KiB, 2-way, 64 B lines\n\
             DRAM: 120 cycles, 20.000 nJ per read, 22.000 nJ per write"
        );
    }
}
