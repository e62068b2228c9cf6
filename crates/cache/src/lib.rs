//! # moca-cache — set-associative cache substrate
//!
//! Functional (timing-free) cache models for the `moca` project. The key
//! design decision is that **every operation takes a [`WayMask`]**: the
//! paper's static partitioning, dynamic repartitioning, and way
//! power-gating all reduce to choosing masks, so the substrate supports
//! them uniformly.
//!
//! ## Quick start
//!
//! ```
//! use moca_cache::{CacheGeometry, SetAssocCache, WayMask};
//! use moca_trace::Mode;
//!
//! // A 2 MiB 16-way L2, way-partitioned 12 user / 4 kernel.
//! let geom = CacheGeometry::new(2 << 20, 16, 64)?;
//! let mut l2 = SetAssocCache::new(geom);
//! let user = WayMask::range(0, 12);
//! let kernel = WayMask::range(12, 16);
//!
//! l2.access(0x10, false, Mode::User, 0, user);
//! l2.access(0x10, false, Mode::Kernel, 1, kernel); // isolated: misses
//! assert_eq!(l2.stats().misses(), 2);
//! # Ok::<(), moca_cache::GeometryError>(())
//! ```
//!
//! ## Module map
//!
//! * [`config`] — [`CacheGeometry`], [`WayMask`].
//! * [`cache`] — [`SetAssocCache`] LRU engine with eviction metadata.
//! * [`stats`] — per-mode counters including cross-mode interference.
//! * [`hierarchy`] — [`L1Pair`] filter in front of the L2.
//! * [`mrc`] — single-pass [`MrcProfiler`] scoring every LRU way count.
//! * [`shadow`] — [`UtilityMonitor`] (UMON) for dynamic partitioning.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mrc;
pub mod shadow;
pub mod stats;

pub use cache::{AccessResult, BlockView, SetAssocCache};
pub use config::{CacheGeometry, GeometryError, PartitionSpec, WayMask};
pub use hierarchy::{L1Outcome, L1Pair, L2Cause, L2Request, ReplacementPolicy};
pub use mrc::{LruStackCore, MissRateCurve, MrcProfiler};
pub use shadow::UtilityMonitor;
pub use stats::{CacheStats, ModeCounters};
