//! The one map from a design point to the engine that executes it.

use moca_cache::stats::CacheStats;
use moca_cache::L2Request;
use moca_energy::EnergyBreakdown;

use crate::design::{DesignError, L2BaseParams, L2Design};
use crate::hybrid::HybridL2;
use crate::mobile_l2::{L2Response, MobileL2, TrafficCounters};
use crate::set_partition::SetPartitionedL2;

/// The L2 engine of one design: [`MobileL2`] for every way-partitioned
/// design, or one of the two alternatives.
#[derive(Debug, Clone)]
pub enum L2Engine {
    /// Every design but the two below.
    Mobile(MobileL2),
    /// [`L2Design::SetPartitionedSram`].
    SetPartitioned(SetPartitionedL2),
    /// [`L2Design::HybridStt`].
    Hybrid(HybridL2),
}

/// Evaluates `$call` with `$l2` bound to whichever engine `$engine` holds.
macro_rules! each {
    ($engine:expr, $l2:ident => $call:expr) => {
        match $engine {
            L2Engine::Mobile($l2) => $call,
            L2Engine::SetPartitioned($l2) => $call,
            L2Engine::Hybrid($l2) => $call,
        }
    };
}

impl L2Engine {
    /// Builds the engine `design` runs on.
    ///
    /// # Errors
    ///
    /// Returns the [`DesignError`] of the engine's constructor: the
    /// design fails [`L2Design::validate`] or `params` give it no valid
    /// geometry.
    pub fn new(design: L2Design, params: L2BaseParams) -> Result<Self, DesignError> {
        Ok(match design {
            L2Design::SetPartitionedSram { .. } => {
                Self::SetPartitioned(SetPartitionedL2::new(design, params)?)
            }
            L2Design::HybridStt { .. } => Self::Hybrid(HybridL2::new(design, params)?),
            _ => Self::Mobile(MobileL2::new(design, params)?),
        })
    }

    /// Processes one request at cycle `now` (non-decreasing across calls).
    #[inline]
    pub fn request(&mut self, req: &L2Request, now: u64) -> L2Response {
        each!(self, l2 => l2.request(req, now))
    }

    /// Accrues trailing leakage; call once after the last request.
    pub fn finalize(&mut self, now: u64) {
        each!(self, l2 => l2.finalize(now))
    }

    /// Cache statistics (both arrays merged for the set-partitioned
    /// engine).
    pub fn stats(&self) -> CacheStats {
        match self {
            Self::Mobile(l2) => *l2.stats(),
            Self::SetPartitioned(l2) => l2.stats(),
            Self::Hybrid(l2) => *l2.stats(),
        }
    }

    /// Energy breakdown over every bank.
    pub fn energy(&self) -> EnergyBreakdown {
        each!(self, l2 => l2.energy())
    }

    /// DRAM traffic so far.
    pub fn traffic(&self) -> TrafficCounters {
        each!(self, l2 => l2.traffic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_energy::RetentionClass;

    #[test]
    fn each_design_gets_its_engine() {
        let p = L2BaseParams::default();
        let set = L2Design::SetPartitionedSram {
            user_sets: 1024,
            kernel_sets: 512,
            ways: 16,
        };
        let hybrid = L2Design::HybridStt {
            sram_ways: 2,
            stt_ways: 14,
            retention: RetentionClass::TenYears,
        };
        let baseline = L2Engine::new(L2Design::baseline(), p);
        assert!(matches!(baseline, Ok(L2Engine::Mobile(_))));
        assert!(matches!(
            L2Engine::new(set, p),
            Ok(L2Engine::SetPartitioned(_))
        ));
        assert!(matches!(L2Engine::new(hybrid, p), Ok(L2Engine::Hybrid(_))));
        for design in [set, hybrid] {
            assert_eq!(
                MobileL2::new(design, p).unwrap_err(),
                DesignError::OtherEngine
            );
        }
    }
}
