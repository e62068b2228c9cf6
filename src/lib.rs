//! # moca — energy-efficient mobile L2 cache design
//!
//! Facade crate re-exporting the `moca` workspace: a reproduction of
//! *"Energy-efficient cache design in emerging mobile platforms"*
//! (DATE'15) and its TODAES'17 extension. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ```
//! use moca::trace::{AppProfile, TraceGenerator};
//!
//! let gen = TraceGenerator::new(&AppProfile::browser(), 42);
//! assert!(gen.take(1000).count() == 1000);
//! ```

/// Workload and trace synthesis (re-export of `moca-trace`).
pub use moca_trace as trace;

/// Cache substrate (re-export of `moca-cache`).
pub use moca_cache as cache;

/// SRAM / STT-RAM technology models (re-export of `moca-energy`).
pub use moca_energy as energy;

/// The paper's L2 designs (re-export of `moca-core`).
pub use moca_core as core;

/// System model and experiment harness (re-export of `moca-sim`).
pub use moca_sim as sim;

/// Seeded NSGA-II design-space search (re-export of `moca-search`).
pub use moca_search as search;

use std::fmt;

/// The workspace-wide error taxonomy: one variant per layer.
///
/// Every fallible path in the workspace surfaces a structured,
/// layer-specific error; `MocaError` unifies them for callers driving
/// the stack end to end (CLI front-ends, services, batch drivers), so a
/// single `Result<_, MocaError>` can carry a bad cache geometry, a
/// rejected design, a corrupt trace file, a failed sweep point, or a
/// plain I/O failure without erasing which layer refused.
///
/// # Examples
///
/// ```
/// use moca::MocaError;
/// use moca::cache::CacheGeometry;
///
/// fn build() -> Result<CacheGeometry, MocaError> {
///     Ok(CacheGeometry::new(2 << 20, 16, 64)?)
/// }
/// assert!(build().is_ok());
///
/// let err: MocaError = CacheGeometry::new(0, 16, 64).unwrap_err().into();
/// assert!(err.to_string().contains("geometry"));
/// ```
#[derive(Debug)]
pub enum MocaError {
    /// An [`L2Design`](moca_core::L2Design) failed validation (also
    /// when a [`System`](moca_sim::System) is assembled around it).
    Design(moca_core::DesignError),
    /// A cache geometry, way mask, or partition spec was inconsistent.
    Geometry(moca_cache::GeometryError),
    /// A trace file could not be read (I/O, bad magic, corrupt record).
    Trace(moca_trace::io::ReadTraceError),
    /// One point of a sweep failed (build rejection or caught panic).
    SweepPoint(moca_sim::SweepPointError),
    /// A co-scheduled mix was rejected (no apps, or a zero quantum).
    Mix(moca_sim::MixError),
    /// An energy/area projection overflowed its integer arithmetic
    /// (event-count sums or capacity products out of range).
    EnergyOverflow(moca_energy::ArithmeticOverflow),
    /// An underlying I/O operation failed (report/CSV/checkpoint
    /// writers, journal files).
    Io(std::io::Error),
}

impl fmt::Display for MocaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MocaError::Design(e) => write!(f, "invalid design: {e}"),
            MocaError::Geometry(e) => write!(f, "invalid geometry: {e}"),
            MocaError::Trace(e) => write!(f, "trace error: {e}"),
            MocaError::SweepPoint(e) => write!(f, "sweep point failure: {e}"),
            MocaError::Mix(e) => write!(f, "invalid mix: {e}"),
            MocaError::EnergyOverflow(e) => write!(f, "energy projection overflow: {e}"),
            MocaError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for MocaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MocaError::Design(e) => Some(e),
            MocaError::Geometry(e) => Some(e),
            MocaError::Trace(e) => Some(e),
            MocaError::SweepPoint(e) => Some(e),
            MocaError::Mix(e) => Some(e),
            MocaError::EnergyOverflow(e) => Some(e),
            MocaError::Io(e) => Some(e),
        }
    }
}

impl From<moca_core::DesignError> for MocaError {
    fn from(e: moca_core::DesignError) -> Self {
        MocaError::Design(e)
    }
}

impl From<moca_cache::GeometryError> for MocaError {
    fn from(e: moca_cache::GeometryError) -> Self {
        MocaError::Geometry(e)
    }
}

impl From<moca_trace::io::ReadTraceError> for MocaError {
    fn from(e: moca_trace::io::ReadTraceError) -> Self {
        MocaError::Trace(e)
    }
}

impl From<moca_sim::SweepPointError> for MocaError {
    fn from(e: moca_sim::SweepPointError) -> Self {
        MocaError::SweepPoint(e)
    }
}

impl From<moca_sim::MixError> for MocaError {
    fn from(e: moca_sim::MixError) -> Self {
        MocaError::Mix(e)
    }
}

impl From<moca_energy::ArithmeticOverflow> for MocaError {
    fn from(e: moca_energy::ArithmeticOverflow) -> Self {
        MocaError::EnergyOverflow(e)
    }
}

impl From<std::io::Error> for MocaError {
    fn from(e: std::io::Error) -> Self {
        MocaError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn every_layer_converts_and_chains() {
        let geo: MocaError = moca_cache::CacheGeometry::new(0, 8, 64).unwrap_err().into();
        assert!(geo.source().is_some());
        assert!(geo.to_string().contains("geometry"));

        let design: MocaError = moca_core::L2Design::SharedSram { ways: 0 }
            .validate()
            .unwrap_err()
            .into();
        assert!(design.to_string().contains("invalid design"));

        let io: MocaError = std::io::Error::other("disk full").into();
        assert!(io.to_string().contains("disk full"));

        let mix: MocaError = moca_sim::Mix::new(Vec::new(), 1).unwrap_err().into();
        assert!(mix.source().is_some());
        assert!(mix.to_string().contains("invalid mix"));

        let trace: MocaError = moca_trace::io::ReadTraceError::HeaderCorrupt("truncated").into();
        assert!(trace.to_string().contains("trace error"));

        let overflow: MocaError = moca_energy::AccessCounts::try_write_allocate(u64::MAX, 0, 1)
            .unwrap_err()
            .into();
        assert!(overflow.source().is_some());
        assert!(overflow.to_string().contains("overflow"));
    }

    #[test]
    fn replay_container_errors_keep_their_chunk_index() {
        // The chunked-container variants flow through unchanged, so a
        // failed corpus replay still names the failing chunk at the
        // top-level error boundary.
        let e: MocaError = moca_trace::io::ReadTraceError::ChunkChecksum { chunk: 3 }.into();
        assert!(e.to_string().contains("chunk 3"), "got: {e}");
        let e: MocaError = moca_trace::io::ReadTraceError::ChunkTruncated { chunk: 7 }.into();
        assert!(e.to_string().contains("chunk 7"), "got: {e}");
    }
}
