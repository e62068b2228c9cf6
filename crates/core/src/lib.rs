//! # moca-core — the paper's energy-efficient mobile L2 designs
//!
//! This crate implements the primary contribution of *"Energy-efficient
//! cache design in emerging mobile platforms"* (DATE'15 / TODAES'17):
//!
//! 1. **Static user/kernel way-partitioning** of the L2 with a shrunk
//!    total size ([`L2Design::StaticSram`], sizing search in
//!    [`static_design`]);
//! 2. **Multi-retention STT-RAM segments** exploiting the distinct access
//!    behaviour of the two segments ([`L2Design::StaticMultiRetention`],
//!    behaviour analysis in [`behavior`]);
//! 3. **Dynamic partitioning with short-retention STT-RAM** and way
//!    power-gating ([`L2Design::DynamicStt`], controller in [`dynamic`]).
//!
//! All design points execute on [`MobileL2`] but two alternatives, and
//! [`L2Engine::new`] maps each design to its engine.
//!
//! ```
//! use moca_core::{L2BaseParams, L2Design, MobileL2};
//! use moca_cache::{L2Cause, L2Request};
//! use moca_trace::{AccessKind, Mode};
//!
//! let mut l2 = MobileL2::new(L2Design::static_default(), L2BaseParams::default())?;
//! let req = L2Request {
//!     line: 1,
//!     write: false,
//!     mode: Mode::Kernel,
//!     cause: L2Cause::Demand(AccessKind::Load),
//! };
//! l2.request(&req, 0);
//! l2.finalize(1_000_000);
//! assert!(l2.energy().total().nj() > 0.0);
//! # Ok::<(), moca_core::DesignError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod design;
pub mod dynamic;
pub mod engine;
pub mod hybrid;
pub mod mobile_l2;
pub mod set_partition;
pub mod static_design;

pub use behavior::{recommend_retention, IntervalHistogram, SegmentBehavior};
pub use design::{DesignError, L2BaseParams, L2Design, RefreshPolicy, CLOCK_GHZ, LINE_BYTES};
pub use dynamic::{AllocationSample, ControllerConfig, DynamicController};
pub use engine::L2Engine;
pub use hybrid::{HybridL2, HybridStats};
pub use mobile_l2::{ExpiryStats, L2Response, MobileL2, TrafficCounters};
pub use set_partition::SetPartitionedL2;
pub use static_design::{find_min_partition, PartitionChoice};
