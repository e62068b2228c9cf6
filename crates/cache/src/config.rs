//! Cache geometry and way masks.

use std::fmt;

/// Errors from constructing a [`CacheGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A size parameter was zero.
    Zero(&'static str),
    /// A parameter that must be a power of two was not.
    NotPowerOfTwo(&'static str, u64),
    /// Capacity is not divisible into `ways * line_bytes` sets.
    Indivisible {
        /// Total capacity in bytes.
        capacity: u64,
        /// Requested associativity.
        ways: u32,
        /// Requested line size.
        line_bytes: u64,
    },
    /// More ways than [`WayMask`] can represent (64).
    TooManyWays(u32),
    /// A single way index beyond the representable range.
    WayOutOfRange(u32),
    /// A way range with `lo > hi` or `hi > 64`.
    InvalidWayRange {
        /// Inclusive lower bound of the requested range.
        lo: u32,
        /// Exclusive upper bound of the requested range.
        hi: u32,
    },
    /// A user/kernel partition requesting more ways than the cache has.
    PartitionOverflow {
        /// Requested user ways.
        user: u32,
        /// Requested kernel ways.
        kernel: u32,
        /// Physical ways available.
        ways: u32,
    },
    /// User and kernel partitions claiming the same way.
    PartitionOverlap {
        /// The user partition's mask bits.
        user: u64,
        /// The kernel partition's mask bits.
        kernel: u64,
    },
    /// A shadow monitor's sampling period exceeding the set count.
    SamplePeriodTooCoarse {
        /// Requested sampling period (`2^sample_shift` sets).
        period: u64,
        /// Sets available in the mirrored geometry.
        sets: u64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Zero(what) => write!(f, "{what} must be non-zero"),
            GeometryError::NotPowerOfTwo(what, v) => {
                write!(f, "{what} must be a power of two, got {v}")
            }
            GeometryError::Indivisible {
                capacity,
                ways,
                line_bytes,
            } => write!(
                f,
                "capacity {capacity} B does not divide into {ways}-way sets of {line_bytes} B lines"
            ),
            GeometryError::TooManyWays(w) => {
                write!(f, "at most 64 ways are supported, got {w}")
            }
            GeometryError::WayOutOfRange(w) => {
                write!(f, "way index {w} is out of range (ways are 0..64)")
            }
            GeometryError::InvalidWayRange { lo, hi } => {
                write!(f, "invalid way range {lo}..{hi}")
            }
            GeometryError::PartitionOverflow { user, kernel, ways } => write!(
                f,
                "partition {user} user + {kernel} kernel ways exceeds the {ways} physical ways"
            ),
            GeometryError::PartitionOverlap { user, kernel } => write!(
                f,
                "user ({user:#x}) and kernel ({kernel:#x}) partitions overlap"
            ),
            GeometryError::SamplePeriodTooCoarse { period, sets } => {
                write!(f, "sample period {period} exceeds {sets} sets")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Shape of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: u64,
    ways: u32,
    line_bytes: u64,
}

impl CacheGeometry {
    /// Builds a geometry from total capacity, associativity, and line size.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any parameter is zero, the line size
    /// or resulting set count is not a power of two, the capacity is not
    /// divisible, or `ways > 64`.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_cache::CacheGeometry;
    ///
    /// let l2 = CacheGeometry::new(2 << 20, 16, 64)?;
    /// assert_eq!(l2.sets(), 2048);
    /// assert_eq!(l2.capacity_bytes(), 2 << 20);
    /// # Ok::<(), moca_cache::GeometryError>(())
    /// ```
    pub const fn new(
        capacity_bytes: u64,
        ways: u32,
        line_bytes: u64,
    ) -> Result<Self, GeometryError> {
        if capacity_bytes == 0 {
            return Err(GeometryError::Zero("capacity"));
        }
        if ways == 0 {
            return Err(GeometryError::Zero("ways"));
        }
        if line_bytes == 0 {
            return Err(GeometryError::Zero("line size"));
        }
        if ways > 64 {
            return Err(GeometryError::TooManyWays(ways));
        }
        if !line_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo("line size", line_bytes));
        }
        let row = ways as u64 * line_bytes;
        if !capacity_bytes.is_multiple_of(row) {
            return Err(GeometryError::Indivisible {
                capacity: capacity_bytes,
                ways,
                line_bytes,
            });
        }
        let sets = capacity_bytes / row;
        if !sets.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo("set count", sets));
        }
        Ok(Self {
            sets,
            ways,
            line_bytes,
        })
    }

    /// Builds a geometry directly from a set count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheGeometry::new`].
    pub fn from_sets(sets: u64, ways: u32, line_bytes: u64) -> Result<Self, GeometryError> {
        if sets == 0 {
            return Err(GeometryError::Zero("sets"));
        }
        Self::new(sets * u64::from(ways) * line_bytes, ways, line_bytes)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets * u64::from(self.ways) * self.line_bytes
    }

    /// Maps a line address to its set index.
    pub fn set_of_line(&self, line: u64) -> u64 {
        line & (self.sets - 1)
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = self.capacity_bytes();
        if cap >= 1 << 20 && cap.is_multiple_of(1 << 20) {
            write!(
                f,
                "{} MiB {}-way/{} B",
                cap >> 20,
                self.ways,
                self.line_bytes
            )
        } else {
            write!(
                f,
                "{} KiB {}-way/{} B",
                cap >> 10,
                self.ways,
                self.line_bytes
            )
        }
    }
}

/// A subset of a cache's ways, used for partitioning and power-gating.
///
/// Bit `i` set means way `i` is a member. Supports up to 64 ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// The empty mask.
    pub const EMPTY: WayMask = WayMask(0);

    /// A mask containing ways `0..ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`; see [`WayMask::try_first`] for the
    /// fallible path this delegates to.
    #[inline]
    pub fn first(ways: u32) -> Self {
        Self::try_first(ways).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`WayMask::first`].
    ///
    /// # Errors
    ///
    /// [`GeometryError::TooManyWays`] if `ways > 64`.
    #[inline]
    pub fn try_first(ways: u32) -> Result<Self, GeometryError> {
        if ways > 64 {
            return Err(GeometryError::TooManyWays(ways));
        }
        Ok(if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        })
    }

    /// A mask containing ways `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > 64`; see [`WayMask::try_range`] for
    /// the fallible path this delegates to.
    #[inline]
    pub fn range(lo: u32, hi: u32) -> Self {
        Self::try_range(lo, hi).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`WayMask::range`].
    ///
    /// # Errors
    ///
    /// [`GeometryError::InvalidWayRange`] if `lo > hi` or `hi > 64`.
    #[inline]
    pub fn try_range(lo: u32, hi: u32) -> Result<Self, GeometryError> {
        if lo > hi || hi > 64 {
            return Err(GeometryError::InvalidWayRange { lo, hi });
        }
        Ok(Self::try_first(hi)?.difference(Self::try_first(lo)?))
    }

    /// A mask from raw bits.
    pub fn from_bits(bits: u64) -> Self {
        WayMask(bits)
    }

    /// The raw bits.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Number of member ways.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Returns `true` if no ways are members.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(&self, way: u32) -> bool {
        way < 64 && self.0 & (1u64 << way) != 0
    }

    /// Returns the mask with `way` added.
    ///
    /// # Panics
    ///
    /// Panics if `way >= 64`; see [`WayMask::try_with`] for the
    /// fallible path this delegates to.
    #[inline]
    pub fn with(&self, way: u32) -> Self {
        self.try_with(way).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`WayMask::with`].
    ///
    /// # Errors
    ///
    /// [`GeometryError::WayOutOfRange`] if `way >= 64`.
    #[inline]
    pub fn try_with(&self, way: u32) -> Result<Self, GeometryError> {
        if way >= 64 {
            return Err(GeometryError::WayOutOfRange(way));
        }
        Ok(WayMask(self.0 | (1u64 << way)))
    }

    /// Returns the mask with `way` removed.
    pub fn without(&self, way: u32) -> Self {
        if way >= 64 {
            *self
        } else {
            WayMask(self.0 & !(1u64 << way))
        }
    }

    /// Set union.
    pub fn union(&self, other: WayMask) -> Self {
        WayMask(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: WayMask) -> Self {
        WayMask(self.0 & other.0)
    }

    /// Ways in `self` but not `other`.
    pub fn difference(&self, other: WayMask) -> Self {
        WayMask(self.0 & !other.0)
    }

    /// Returns `true` if the two masks share no ways.
    pub fn is_disjoint(&self, other: WayMask) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterates member way indices in increasing order.
    pub fn iter(&self) -> WayMaskIter {
        WayMaskIter(self.0)
    }

    /// Lowest member way, if any.
    pub fn lowest(&self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros())
        }
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways{{")?;
        let mut first = true;
        for w in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{w}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl IntoIterator for WayMask {
    type Item = u32;
    type IntoIter = WayMaskIter;

    fn into_iter(self) -> WayMaskIter {
        self.iter()
    }
}

/// Iterator over member way indices of a [`WayMask`].
#[derive(Debug, Clone)]
pub struct WayMaskIter(u64);

impl Iterator for WayMaskIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            let w = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            Some(w)
        }
    }
}

/// A validated user/kernel way partition of a set-associative cache.
///
/// The partitioned L2 designs of the paper split the physical ways into
/// a user region and a kernel region. `PartitionSpec` centralizes the
/// invariants every such split must satisfy — both regions fit in the
/// physical ways, and they are disjoint — so design construction gets
/// one fallible path instead of scattered asserts.
///
/// # Examples
///
/// ```
/// use moca_cache::{GeometryError, PartitionSpec};
///
/// let p = PartitionSpec::split(6, 4, 16)?;
/// assert_eq!(p.user().count(), 6);
/// assert_eq!(p.kernel().count(), 4);
/// assert!(p.user().is_disjoint(p.kernel()));
///
/// // 10 + 8 ways cannot fit a 16-way cache.
/// assert!(matches!(
///     PartitionSpec::split(10, 8, 16),
///     Err(GeometryError::PartitionOverflow { .. })
/// ));
/// # Ok::<(), GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    user: WayMask,
    kernel: WayMask,
}

impl PartitionSpec {
    /// Splits `ways` physical ways into the first `user_ways` for user
    /// lines and the next `kernel_ways` for kernel lines (the layout
    /// used by all static and dynamic partitioned designs).
    ///
    /// # Errors
    ///
    /// [`GeometryError::PartitionOverflow`] if `user_ways + kernel_ways`
    /// exceeds `ways` (or overflows), and any error of
    /// [`WayMask::try_range`] if `ways > 64`.
    pub fn split(user_ways: u32, kernel_ways: u32, ways: u32) -> Result<Self, GeometryError> {
        let total = user_ways
            .checked_add(kernel_ways)
            .ok_or(GeometryError::PartitionOverflow {
                user: user_ways,
                kernel: kernel_ways,
                ways,
            })?;
        if total > ways {
            return Err(GeometryError::PartitionOverflow {
                user: user_ways,
                kernel: kernel_ways,
                ways,
            });
        }
        Self::from_masks(
            WayMask::try_first(user_ways)?,
            WayMask::try_range(user_ways, total)?,
        )
    }

    /// Builds a partition from explicit masks.
    ///
    /// # Errors
    ///
    /// [`GeometryError::PartitionOverlap`] if the masks share a way.
    pub fn from_masks(user: WayMask, kernel: WayMask) -> Result<Self, GeometryError> {
        if !user.is_disjoint(kernel) {
            return Err(GeometryError::PartitionOverlap {
                user: user.bits(),
                kernel: kernel.bits(),
            });
        }
        Ok(Self { user, kernel })
    }

    /// The user region's way mask.
    pub fn user(&self) -> WayMask {
        self.user
    }

    /// The kernel region's way mask.
    pub fn kernel(&self) -> WayMask {
        self.kernel
    }

    /// Union of both regions.
    pub fn all(&self) -> WayMask {
        self.user.union(self.kernel)
    }

    /// Total partitioned ways (user + kernel).
    pub fn total_ways(&self) -> u32 {
        self.all().count()
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user {} | kernel {}", self.user, self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basic() {
        let g = CacheGeometry::new(2 << 20, 16, 64).expect("valid");
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.ways(), 16);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.capacity_bytes(), 2 << 20);
        assert_eq!(g.to_string(), "2 MiB 16-way/64 B");
    }

    #[test]
    fn geometry_rejects_bad_params() {
        assert!(matches!(
            CacheGeometry::new(0, 8, 64),
            Err(GeometryError::Zero("capacity"))
        ));
        assert!(matches!(
            CacheGeometry::new(1 << 20, 0, 64),
            Err(GeometryError::Zero("ways"))
        ));
        assert!(matches!(
            CacheGeometry::new(1 << 20, 8, 0),
            Err(GeometryError::Zero("line size"))
        ));
        assert!(matches!(
            CacheGeometry::new(1 << 20, 8, 48),
            Err(GeometryError::NotPowerOfTwo("line size", 48))
        ));
        assert!(matches!(
            CacheGeometry::new(1 << 20, 65, 64),
            Err(GeometryError::TooManyWays(65))
        ));
        assert!(matches!(
            CacheGeometry::new((1 << 20) + 64, 8, 64),
            Err(GeometryError::Indivisible { .. })
        ));
        // 3-way, 3*64=192 divides 192*4=768 but sets=4 ok... craft non-pow2 sets:
        assert!(matches!(
            CacheGeometry::new(192 * 3, 3, 64),
            Err(GeometryError::NotPowerOfTwo("set count", 3))
        ));
    }

    #[test]
    fn geometry_from_sets() {
        let g = CacheGeometry::from_sets(512, 4, 64).expect("valid");
        assert_eq!(g.capacity_bytes(), 512 * 4 * 64);
        assert!(CacheGeometry::from_sets(0, 4, 64).is_err());
    }

    #[test]
    fn error_display() {
        let e = CacheGeometry::new(1 << 20, 8, 48).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn waymask_first_and_range() {
        assert_eq!(WayMask::first(0), WayMask::EMPTY);
        assert_eq!(WayMask::first(4).bits(), 0b1111);
        assert_eq!(WayMask::first(64).bits(), u64::MAX);
        assert_eq!(WayMask::range(2, 5).bits(), 0b11100);
        assert_eq!(WayMask::range(3, 3), WayMask::EMPTY);
    }

    #[test]
    fn waymask_set_ops() {
        let a = WayMask::range(0, 4);
        let b = WayMask::range(2, 6);
        assert_eq!(a.union(b), WayMask::range(0, 6));
        assert_eq!(a.intersection(b), WayMask::range(2, 4));
        assert_eq!(a.difference(b), WayMask::range(0, 2));
        assert!(!a.is_disjoint(b));
        assert!(a.is_disjoint(WayMask::range(4, 8)));
    }

    #[test]
    fn waymask_with_without_contains() {
        let m = WayMask::EMPTY.with(3).with(7);
        assert!(m.contains(3) && m.contains(7));
        assert!(!m.contains(4));
        assert_eq!(m.count(), 2);
        assert_eq!(m.without(3).count(), 1);
        assert_eq!(m.without(63).count(), 2);
        assert_eq!(m.without(100), m);
        assert!(!m.contains(100));
    }

    #[test]
    fn waymask_iter_order() {
        let m = WayMask::EMPTY.with(5).with(1).with(9);
        let ways: Vec<u32> = m.iter().collect();
        assert_eq!(ways, vec![1, 5, 9]);
        assert_eq!(m.lowest(), Some(1));
        assert_eq!(WayMask::EMPTY.lowest(), None);
    }

    #[test]
    fn waymask_display() {
        let m = WayMask::EMPTY.with(0).with(2);
        assert_eq!(m.to_string(), "ways{0,2}");
    }

    #[test]
    fn try_waymask_constructors_reject_each_invalid_class() {
        // Too many ways for a first-N mask.
        assert_eq!(WayMask::try_first(64), Ok(WayMask(u64::MAX)));
        assert_eq!(WayMask::try_first(65), Err(GeometryError::TooManyWays(65)));
        // Inverted or out-of-bounds ranges.
        assert_eq!(WayMask::try_range(2, 5), Ok(WayMask::range(2, 5)));
        assert_eq!(
            WayMask::try_range(5, 2),
            Err(GeometryError::InvalidWayRange { lo: 5, hi: 2 })
        );
        assert_eq!(
            WayMask::try_range(0, 65),
            Err(GeometryError::InvalidWayRange { lo: 0, hi: 65 })
        );
        // Single-way index out of range.
        assert_eq!(WayMask::EMPTY.try_with(63), Ok(WayMask::EMPTY.with(63)));
        assert_eq!(
            WayMask::EMPTY.try_with(64),
            Err(GeometryError::WayOutOfRange(64))
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn asserting_first_delegates_to_fallible_path() {
        let _ = WayMask::first(65);
    }

    #[test]
    #[should_panic(expected = "invalid way range")]
    fn asserting_range_delegates_to_fallible_path() {
        let _ = WayMask::range(5, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn asserting_with_delegates_to_fallible_path() {
        let _ = WayMask::EMPTY.with(64);
    }

    #[test]
    fn partition_split_lays_out_user_then_kernel() {
        let p = PartitionSpec::split(6, 4, 16).expect("valid");
        assert_eq!(p.user(), WayMask::first(6));
        assert_eq!(p.kernel(), WayMask::range(6, 10));
        assert_eq!(p.all(), WayMask::first(10));
        assert_eq!(p.total_ways(), 10);
        assert_eq!(
            p.to_string(),
            format!("user {} | kernel {}", p.user(), p.kernel())
        );
    }

    #[test]
    fn partition_rejects_overflow_and_overlap() {
        assert_eq!(
            PartitionSpec::split(10, 8, 16),
            Err(GeometryError::PartitionOverflow {
                user: 10,
                kernel: 8,
                ways: 16
            })
        );
        assert_eq!(
            PartitionSpec::split(u32::MAX, 2, 16),
            Err(GeometryError::PartitionOverflow {
                user: u32::MAX,
                kernel: 2,
                ways: 16
            })
        );
        assert!(matches!(
            PartitionSpec::split(70, 0, 80),
            Err(GeometryError::TooManyWays(70))
        ));
        let err = PartitionSpec::from_masks(WayMask::first(4), WayMask::range(3, 6));
        assert_eq!(
            err,
            Err(GeometryError::PartitionOverlap {
                user: 0b1111,
                kernel: 0b111000
            })
        );
        let e = err.unwrap_err();
        assert!(e.to_string().contains("overlap"), "{e}");
    }

    #[test]
    fn partition_edge_splits() {
        // Zero-way regions are representable (a fully user or fully
        // kernel cache) and full-width splits are exact.
        let all_user = PartitionSpec::split(16, 0, 16).expect("valid");
        assert!(all_user.kernel().is_empty());
        let exact = PartitionSpec::split(8, 8, 16).expect("valid");
        assert_eq!(exact.total_ways(), 16);
    }
}
