//! L2 design-point configuration.
//!
//! The paper's evaluation compares four designs; [`L2Design`] captures all
//! of them (plus sweep points and two alternatives) as data, and
//! [`L2Engine::new`](crate::engine::L2Engine::new) builds each one's engine.

use moca_cache::GeometryError;
use moca_energy::RetentionClass;

use std::fmt;

/// How a volatile (short-retention) STT-RAM segment handles blocks whose
/// retention clock is running out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPolicy {
    /// Write dirty blocks back early, then let blocks expire and
    /// invalidate them lazily. Cheap, but expired blocks re-miss.
    InvalidateOnExpiry,
    /// Rewrite ageing blocks in place (DRAM-style refresh at half the
    /// retention period). No expiry misses, but refresh writes cost
    /// energy.
    Refresh,
}

impl fmt::Display for RefreshPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefreshPolicy::InvalidateOnExpiry => f.write_str("invalidate-on-expiry"),
            RefreshPolicy::Refresh => f.write_str("refresh"),
        }
    }
}

/// Line size in bytes, across the whole hierarchy (T1).
pub const LINE_BYTES: u64 = 64;

/// Core clock in GHz (T1): converts cycles to wall-clock time for
/// leakage and retention.
pub const CLOCK_GHZ: f64 = 1.0;

/// Parameters shared by every design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2BaseParams {
    /// Number of sets (fixed across designs; capacity varies by ways).
    pub sets: u64,
    /// Enable a next-line prefetcher: every demand miss also fills
    /// `line + 1` into the same segment (if absent). Helps the streaming
    /// tails mobile workloads are rich in; costs fill energy and DRAM
    /// traffic. Disabled by default (the paper's designs have none).
    pub next_line_prefetch: bool,
}

impl Default for L2BaseParams {
    /// The paper-era mobile L2 substrate: 2048 sets × [`LINE_BYTES`]
    /// lines (128 KiB per way), LRU, 45 nm.
    fn default() -> Self {
        Self {
            sets: 2048,
            next_line_prefetch: false,
        }
    }
}

impl L2BaseParams {
    /// Bytes of one way (sets × [`LINE_BYTES`]).
    pub fn way_bytes(&self) -> u64 {
        self.sets * LINE_BYTES
    }
}

/// One of the paper's L2 design points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum L2Design {
    /// Conventional shared SRAM L2 (the baseline).
    SharedSram {
        /// Total associativity.
        ways: u32,
    },
    /// Conventional shared L2 on homogeneous STT-RAM (no partitioning) —
    /// a comparison point that isolates the technology swap from the
    /// paper's partitioning techniques.
    SharedStt {
        /// Total associativity.
        ways: u32,
        /// Retention class of all cells.
        retention: RetentionClass,
        /// Expiry handling when the class is volatile.
        refresh: RefreshPolicy,
    },
    /// Statically way-partitioned SRAM: isolated user and kernel segments,
    /// usually with a shrunk total size (the paper's first technique).
    StaticSram {
        /// Ways of the user segment.
        user_ways: u32,
        /// Ways of the kernel segment.
        kernel_ways: u32,
    },
    /// Static partition on multi-retention STT-RAM (second technique).
    StaticMultiRetention {
        /// Ways of the user segment.
        user_ways: u32,
        /// Ways of the kernel segment.
        kernel_ways: u32,
        /// Retention class of the user segment's cells.
        user_retention: RetentionClass,
        /// Retention class of the kernel segment's cells.
        kernel_retention: RetentionClass,
        /// Expiry handling for volatile segments.
        refresh: RefreshPolicy,
    },
    /// Dynamic partitioning on plain SRAM — an ablation separating the
    /// benefit of adaptive sizing from the technology change. Not one of
    /// the paper's proposals; used by the F8 sensitivity study.
    DynamicSram {
        /// Physical associativity (upper bound on the two segments).
        max_ways: u32,
        /// Lower bound on each segment's ways.
        min_ways: u32,
        /// Epoch length in cycles between repartition decisions.
        epoch_cycles: u64,
    },
    /// Dynamically partitioned short-retention STT-RAM (third technique):
    /// segment sizes adapt per epoch, unused ways are power-gated.
    DynamicStt {
        /// Physical associativity (upper bound on the two segments).
        max_ways: u32,
        /// Lower bound on each segment's ways.
        min_ways: u32,
        /// Retention class of the user segment's cells.
        user_retention: RetentionClass,
        /// Retention class of the kernel segment's cells.
        kernel_retention: RetentionClass,
        /// Expiry handling for volatile segments.
        refresh: RefreshPolicy,
        /// Epoch length in cycles between repartition decisions.
        epoch_cycles: u64,
    },
    /// Set-partitioned SRAM: user and kernel arrays of their own set counts
    /// (A2; see [`SetPartitionedL2`](crate::set_partition::SetPartitionedL2)).
    SetPartitionedSram {
        /// Sets of the user array.
        user_sets: u64,
        /// Sets of the kernel array.
        kernel_sets: u64,
        /// Associativity of each array.
        ways: u32,
    },
    /// Mode-agnostic SRAM + non-volatile STT-RAM hybrid with write-history
    /// steering (A3; see [`HybridL2`](crate::hybrid::HybridL2)).
    HybridStt {
        /// Ways of the SRAM partition.
        sram_ways: u32,
        /// Ways of the STT-RAM partition.
        stt_ways: u32,
        /// Retention class of the STT-RAM cells (must be non-volatile).
        retention: RetentionClass,
    },
}

/// Errors from validating an [`L2Design`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// A way count was zero.
    ZeroWays(&'static str),
    /// Way counts exceed what [`moca_cache::WayMask`] supports.
    TooManyWays(u32),
    /// Dynamic design's `min_ways * 2 > max_ways`.
    MinExceedsMax {
        /// Requested minimum per segment.
        min_ways: u32,
        /// Physical maximum.
        max_ways: u32,
    },
    /// Epoch length of zero cycles.
    ZeroEpoch,
    /// A set-partitioned array's set count is zero or not a power of two.
    BadSetCount(&'static str, u64),
    /// A hybrid's STT-RAM retention class is volatile.
    VolatileHybrid,
    /// An engine was given a design another engine runs.
    OtherEngine,
    /// The base parameters give the design no valid cache geometry.
    Geometry(GeometryError),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::ZeroWays(which) => write!(f, "{which} must have at least one way"),
            DesignError::TooManyWays(w) => write!(f, "total ways {w} exceeds 64"),
            DesignError::MinExceedsMax { min_ways, max_ways } => write!(
                f,
                "two segments of at least {min_ways} ways cannot fit in {max_ways} ways"
            ),
            DesignError::ZeroEpoch => f.write_str("epoch length must be non-zero"),
            DesignError::BadSetCount(which, n) => write!(f, "{which} sets {n} not a power of two"),
            DesignError::VolatileHybrid => f.write_str("hybrid STT-RAM ways must be non-volatile"),
            DesignError::OtherEngine => f.write_str("the design runs on another L2 engine"),
            DesignError::Geometry(e) => write!(f, "no valid L2 geometry: {e}"),
        }
    }
}

impl std::error::Error for DesignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DesignError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl L2Design {
    /// The paper's baseline: 2 MiB 16-way shared SRAM.
    pub fn baseline() -> Self {
        L2Design::SharedSram { ways: 16 }
    }

    /// The paper's static technique at its default design point: a shrunk
    /// (6 user + 4 kernel)-way partition (10 of 16 baseline ways) on
    /// multi-retention STT-RAM — long-retention user cells,
    /// short-retention kernel cells.
    pub fn static_default() -> Self {
        L2Design::StaticMultiRetention {
            user_ways: 6,
            kernel_ways: 4,
            user_retention: RetentionClass::OneSecond,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        }
    }

    /// The paper's dynamic technique at its default design point:
    /// short-retention cells in *both* segments for maximal savings.
    pub fn dynamic_default() -> Self {
        L2Design::DynamicStt {
            max_ways: 16,
            min_ways: 1,
            user_retention: RetentionClass::HundredMillis,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::InvalidateOnExpiry,
            epoch_cycles: 500_000,
        }
    }

    /// Physical associativity the design needs.
    pub fn physical_ways(&self) -> u32 {
        match *self {
            L2Design::SharedSram { ways } | L2Design::SharedStt { ways, .. } => ways,
            L2Design::StaticSram {
                user_ways,
                kernel_ways,
            }
            | L2Design::StaticMultiRetention {
                user_ways,
                kernel_ways,
                ..
            } => user_ways + kernel_ways,
            L2Design::DynamicSram { max_ways, .. } | L2Design::DynamicStt { max_ways, .. } => {
                max_ways
            }
            L2Design::SetPartitionedSram { ways, .. } => ways,
            L2Design::HybridStt {
                sram_ways,
                stt_ways,
                ..
            } => sram_ways + stt_ways,
        }
    }

    /// Validates the design point.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), DesignError> {
        match *self {
            L2Design::SharedSram { ways } | L2Design::SharedStt { ways, .. } => {
                if ways == 0 {
                    return Err(DesignError::ZeroWays("shared cache"));
                }
            }
            L2Design::StaticSram {
                user_ways,
                kernel_ways,
            }
            | L2Design::StaticMultiRetention {
                user_ways,
                kernel_ways,
                ..
            } => {
                if user_ways == 0 {
                    return Err(DesignError::ZeroWays("user segment"));
                }
                if kernel_ways == 0 {
                    return Err(DesignError::ZeroWays("kernel segment"));
                }
            }
            L2Design::DynamicSram {
                max_ways,
                min_ways,
                epoch_cycles,
            }
            | L2Design::DynamicStt {
                max_ways,
                min_ways,
                epoch_cycles,
                ..
            } => {
                if max_ways == 0 {
                    return Err(DesignError::ZeroWays("dynamic cache"));
                }
                if min_ways == 0 {
                    return Err(DesignError::ZeroWays("segment minimum"));
                }
                if min_ways * 2 > max_ways {
                    return Err(DesignError::MinExceedsMax { min_ways, max_ways });
                }
                if epoch_cycles == 0 {
                    return Err(DesignError::ZeroEpoch);
                }
            }
            L2Design::SetPartitionedSram {
                user_sets,
                kernel_sets,
                ways,
            } => {
                for (which, sets) in [("user array", user_sets), ("kernel array", kernel_sets)] {
                    if !sets.is_power_of_two() {
                        return Err(DesignError::BadSetCount(which, sets));
                    }
                }
                if ways == 0 {
                    return Err(DesignError::ZeroWays("set-partitioned array"));
                }
            }
            L2Design::HybridStt {
                sram_ways,
                stt_ways,
                retention,
            } => {
                for (which, ways) in [("sram partition", sram_ways), ("stt partition", stt_ways)] {
                    if ways == 0 {
                        return Err(DesignError::ZeroWays(which));
                    }
                }
                if retention.is_volatile() {
                    return Err(DesignError::VolatileHybrid);
                }
            }
        }
        if self.physical_ways() > 64 {
            return Err(DesignError::TooManyWays(self.physical_ways()));
        }
        Ok(())
    }

    /// Short human-readable label for tables.
    pub fn label(&self) -> String {
        match *self {
            L2Design::SharedSram { ways } => format!("SRAM-shared-{ways}w"),
            L2Design::SharedStt {
                ways, retention, ..
            } => format!("STT-shared-{ways}w-{retention}"),
            L2Design::StaticSram {
                user_ways,
                kernel_ways,
            } => format!("SRAM-static-{user_ways}u{kernel_ways}k"),
            L2Design::StaticMultiRetention {
                user_ways,
                kernel_ways,
                user_retention,
                kernel_retention,
                ..
            } => format!(
                "MRSTT-static-{user_ways}u{kernel_ways}k-{user_retention}/{kernel_retention}"
            ),
            L2Design::DynamicSram { max_ways, .. } => format!("SRAM-dynamic-{max_ways}w"),
            L2Design::DynamicStt {
                max_ways,
                user_retention,
                kernel_retention,
                ..
            } => format!("STT-dynamic-{max_ways}w-{user_retention}/{kernel_retention}"),
            L2Design::SetPartitionedSram {
                user_sets,
                kernel_sets,
                ways,
            } => format!("SRAM-setpart-{user_sets}/{kernel_sets}sets-{ways}w"),
            L2Design::HybridStt {
                sram_ways,
                stt_ways,
                retention,
            } => format!("Hybrid-{sram_ways}s{stt_ways}t-{retention}"),
        }
    }
}

impl fmt::Display for L2Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        L2Design::baseline().validate().expect("baseline");
        L2Design::static_default().validate().expect("static");
        L2Design::dynamic_default().validate().expect("dynamic");
    }

    #[test]
    fn baseline_is_2mib_16way() {
        let p = L2BaseParams::default();
        assert_eq!(p.way_bytes(), 128 << 10);
        assert_eq!(L2Design::baseline().physical_ways(), 16);
        assert_eq!(
            p.way_bytes() * u64::from(L2Design::baseline().physical_ways()),
            2 << 20
        );
    }

    #[test]
    fn physical_ways_sums_partitions() {
        let d = L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 2,
        };
        assert_eq!(d.physical_ways(), 8);
    }

    #[test]
    fn validation_catches_zero_ways() {
        assert!(matches!(
            L2Design::SharedSram { ways: 0 }.validate(),
            Err(DesignError::ZeroWays(_))
        ));
        assert!(matches!(
            L2Design::StaticSram {
                user_ways: 0,
                kernel_ways: 2
            }
            .validate(),
            Err(DesignError::ZeroWays("user segment"))
        ));
        assert!(matches!(
            L2Design::StaticSram {
                user_ways: 2,
                kernel_ways: 0
            }
            .validate(),
            Err(DesignError::ZeroWays("kernel segment"))
        ));
    }

    #[test]
    fn validation_catches_dynamic_bounds() {
        let d = L2Design::DynamicStt {
            max_ways: 4,
            min_ways: 3,
            user_retention: RetentionClass::OneSecond,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::Refresh,
            epoch_cycles: 1000,
        };
        assert!(matches!(
            d.validate(),
            Err(DesignError::MinExceedsMax { .. })
        ));
        let d = L2Design::DynamicStt {
            max_ways: 8,
            min_ways: 1,
            user_retention: RetentionClass::OneSecond,
            kernel_retention: RetentionClass::TenMillis,
            refresh: RefreshPolicy::Refresh,
            epoch_cycles: 0,
        };
        assert_eq!(d.validate(), Err(DesignError::ZeroEpoch));
    }

    #[test]
    fn validation_catches_too_many_ways() {
        let d = L2Design::StaticSram {
            user_ways: 40,
            kernel_ways: 30,
        };
        assert_eq!(d.validate(), Err(DesignError::TooManyWays(70)));
    }

    #[test]
    fn validation_catches_set_partitioned_geometry() {
        let set = |user_sets, kernel_sets, ways| L2Design::SetPartitionedSram {
            user_sets,
            kernel_sets,
            ways,
        };
        assert_eq!(set(1024, 512, 16).validate(), Ok(()));
        assert_eq!(
            set(0, 512, 16).validate(),
            Err(DesignError::BadSetCount("user array", 0))
        );
        assert_eq!(
            set(1024, 3, 16).validate(),
            Err(DesignError::BadSetCount("kernel array", 3))
        );
        assert_eq!(
            set(1024, 512, 0).validate(),
            Err(DesignError::ZeroWays("set-partitioned array"))
        );
        assert_eq!(
            set(1024, 512, 65).validate(),
            Err(DesignError::TooManyWays(65))
        );
    }

    #[test]
    fn validation_catches_hybrid_splits_and_volatile_retention() {
        let hybrid = |sram_ways, stt_ways, retention| L2Design::HybridStt {
            sram_ways,
            stt_ways,
            retention,
        };
        let nv = RetentionClass::TenYears;
        assert_eq!(hybrid(2, 14, nv).validate(), Ok(()));
        assert_eq!(
            hybrid(0, 14, nv).validate(),
            Err(DesignError::ZeroWays("sram partition"))
        );
        assert_eq!(
            hybrid(2, 0, nv).validate(),
            Err(DesignError::ZeroWays("stt partition"))
        );
        assert_eq!(
            hybrid(40, 40, nv).validate(),
            Err(DesignError::TooManyWays(80))
        );
        assert_eq!(
            hybrid(2, 14, RetentionClass::TenMillis).validate(),
            Err(DesignError::VolatileHybrid)
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            L2Design::baseline().label(),
            L2Design::static_default().label(),
            L2Design::dynamic_default().label(),
            L2Design::StaticSram {
                user_ways: 6,
                kernel_ways: 2,
            }
            .label(),
            L2Design::SetPartitionedSram {
                user_sets: 1024,
                kernel_sets: 512,
                ways: 16,
            }
            .label(),
            L2Design::HybridStt {
                sram_ways: 2,
                stt_ways: 14,
                retention: RetentionClass::TenYears,
            }
            .label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn error_display() {
        let e = DesignError::MinExceedsMax {
            min_ways: 3,
            max_ways: 4,
        };
        assert!(e.to_string().contains("cannot fit"));
    }
}
