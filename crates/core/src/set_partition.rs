//! Set-partitioned L2: the main design-space alternative to way
//! partitioning.
//!
//! Way partitioning (the paper's choice, [`MobileL2`]) splits the
//! associativity of one array; set partitioning gives each mode its own
//! smaller array with *full* associativity but fewer sets. The trade-off:
//!
//! * way partitioning keeps all sets (fewer conflict-prone indices) but
//!   lowers per-segment associativity, and can re-size at way
//!   granularity at runtime;
//! * set partitioning keeps associativity but needs power-of-two set
//!   counts, and resizing means re-indexing the whole array (which is why
//!   the paper's dynamic technique is way-based).
//!
//! [`SetPartitionedL2`] executes [`L2Design::SetPartitionedSram`] as two
//! shared-SRAM [`MobileL2`] arrays, so both partitioning styles run the
//! same request path; the A2 experiment compares them at equal capacity.

use moca_cache::stats::CacheStats;
use moca_cache::L2Request;
use moca_energy::EnergyBreakdown;

use crate::design::{DesignError, L2BaseParams, L2Design};
use crate::mobile_l2::{L2Response, MobileL2, TrafficCounters};

/// A two-array, set-partitioned L2: the user array serves user-mode
/// requests and the kernel array kernel-mode ones.
#[derive(Debug, Clone)]
pub struct SetPartitionedL2 {
    /// Boxed so an [`L2Engine`](crate::engine::L2Engine) is no larger
    /// than one array.
    arrays: Box<[MobileL2; 2]>,
}

impl SetPartitionedL2 {
    /// Builds a [`L2Design::SetPartitionedSram`] design: two shared-SRAM
    /// arrays of `ways` ways and their own set counts.
    ///
    /// # Errors
    ///
    /// Returns the [`DesignError`] of [`L2Design::validate`],
    /// [`DesignError::OtherEngine`] for any other design, or
    /// [`DesignError::Geometry`] if `params` give no valid geometry.
    pub fn new(design: L2Design, params: L2BaseParams) -> Result<Self, DesignError> {
        design.validate()?;
        let L2Design::SetPartitionedSram {
            user_sets,
            kernel_sets,
            ways,
        } = design
        else {
            return Err(DesignError::OtherEngine);
        };
        let array = |sets| {
            MobileL2::new(
                L2Design::SharedSram { ways },
                L2BaseParams { sets, ..params },
            )
        };
        Ok(Self {
            arrays: Box::new([array(user_sets)?, array(kernel_sets)?]),
        })
    }

    /// Processes one request at cycle `now`, in its mode's array.
    pub fn request(&mut self, req: &L2Request, now: u64) -> L2Response {
        self.arrays[req.mode.index()].request(req, now)
    }

    /// Charges both arrays up to `now`; call once after the last request.
    pub fn finalize(&mut self, now: u64) {
        self.arrays.iter_mut().for_each(|a| a.finalize(now));
    }

    /// Merged statistics of both arrays.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::new();
        self.arrays.iter().for_each(|a| s.merge(a.stats()));
        s
    }

    /// Merged energy breakdown.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::new();
        self.arrays.iter().for_each(|a| e.merge(&a.energy()));
        e
    }

    /// DRAM traffic of both arrays.
    pub fn traffic(&self) -> TrafficCounters {
        let [u, k] = self.arrays.each_ref().map(MobileL2::traffic);
        TrafficCounters {
            dram_reads: u.dram_reads + k.dram_reads,
            dram_writes: u.dram_writes + k.dram_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_cache::L2Cause;
    use moca_trace::{AccessKind, Mode};

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

    fn design(user_sets: u64) -> L2Design {
        L2Design::SetPartitionedSram {
            user_sets,
            kernel_sets: 512,
            ways: 16,
        }
    }

    fn mk() -> SetPartitionedL2 {
        // 1 MiB user (1024 sets x 16w) + 512 KiB kernel (512 sets x 16w).
        SetPartitionedL2::new(design(1024), L2BaseParams::default()).expect("valid")
    }

    #[test]
    fn arrays_have_their_own_geometry() {
        let l2 = mk();
        let bytes = l2
            .arrays
            .each_ref()
            .map(|a| u64::from(a.active_ways()) * a.params().way_bytes());
        assert_eq!(bytes, [1 << 20, 512 << 10]);
    }

    #[test]
    fn arrays_are_isolated() {
        let mut l2 = mk();
        l2.request(&req(7, false, Mode::User), 0);
        // Same line in kernel mode goes to the other array: a miss.
        let r = l2.request(&req(7, false, Mode::Kernel), 10);
        assert!(!r.hit);
        // And both hit afterwards, independently.
        assert!(l2.request(&req(7, false, Mode::User), 20).hit);
        assert!(l2.request(&req(7, false, Mode::Kernel), 30).hit);
        assert_eq!(l2.stats().cross_evictions, [0, 0]);
    }

    #[test]
    fn accounting_identities() {
        let mut l2 = mk();
        for i in 0..5000u64 {
            let mode = if i % 3 == 0 { Mode::Kernel } else { Mode::User };
            l2.request(&req(i % 700, i % 5 == 0, mode), i * 10);
        }
        l2.finalize(60_000);
        let s = l2.stats();
        assert_eq!(s.accesses(), 5000);
        assert_eq!(l2.traffic().dram_reads, s.misses());
        assert!(l2.energy().total().nj() > 0.0);
        assert!(l2.energy().leakage.nj() > 0.0);
        assert!(l2.arrays.iter().all(|a| a.stats().miss_rate() > 0.0));
    }

    #[test]
    fn bad_geometry_is_rejected() {
        // 3 sets is not a power of two.
        assert_eq!(
            SetPartitionedL2::new(design(3), L2BaseParams::default()).unwrap_err(),
            DesignError::BadSetCount("user array", 3)
        );
    }

    #[test]
    fn leakage_tracks_both_arrays() {
        let mut l2 = mk();
        l2.request(&req(1, false, Mode::User), 0);
        l2.finalize(1_000_000);
        let e = l2.energy();
        // 1.5 MiB SRAM at ~80 mW/MiB for 1 ms ≈ 120 uJ; sanity band.
        assert!(e.leakage.joules() > 1e-8 && e.leakage.joules() < 1e-2);
    }
}
