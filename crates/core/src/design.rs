//! L2 design-point configuration.
//!
//! The paper's evaluation compares four designs; [`L2Design`] captures all
//! of them (plus intermediate points for sweeps) as data, and
//! [`MobileL2`](crate::mobile_l2::MobileL2) executes any of them.

use moca_cache::replacement::ReplacementPolicy;
use moca_energy::{RetentionClass, TechNode, Temperature};

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

/// Parameters shared by every design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2BaseParams {
    /// Number of sets (fixed across designs; capacity varies by ways).
    pub sets: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Replacement policy of every segment.
    pub policy: ReplacementPolicy,
    /// Process node of the banks.
    pub tech: TechNode,
    /// Core clock in GHz (converts cycles to wall-clock for leakage and
    /// retention).
    pub clock_ghz: f64,
    /// Model an L2 write buffer: store hits retire at read latency (the
    /// buffer absorbs the slow MTJ write off the critical path). The
    /// energy cost of the write is unchanged. The standard mitigation for
    /// STT-RAM write latency in this paper family; disabled by default so
    /// the headline numbers show the raw technology trade-off.
    pub write_buffer: bool,
    /// Enable a next-line prefetcher: every demand miss also fills
    /// `line + 1` into the same segment (if absent). Helps the streaming
    /// tails mobile workloads are rich in; costs fill energy and DRAM
    /// traffic. Disabled by default (the paper's designs have none).
    pub next_line_prefetch: bool,
    /// Die temperature; leakage doubles every ~25 C above the 60 C
    /// reference. The headline experiments run at the reference.
    pub temperature: Temperature,
}

impl Default for L2BaseParams {
    /// The paper-era mobile L2 substrate: 2048 sets × 64 B lines
    /// (128 KiB per way), LRU, 45 nm, 1 GHz.
    fn default() -> Self {
        Self {
            sets: 2048,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
            tech: TechNode::Nm45,
            clock_ghz: 1.0,
            write_buffer: false,
            next_line_prefetch: false,
            temperature: Temperature::REFERENCE,
        }
    }
}

impl L2BaseParams {
    /// Bytes of one way (sets × line size).
    pub fn way_bytes(&self) -> u64 {
        self.sets * self.line_bytes
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
        }
    }
}

impl std::error::Error for DesignError {}

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
