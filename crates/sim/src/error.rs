//! Structured errors for fault-tolerant sweep execution.
//!
//! The sweep executor ([`crate::lockstep::execute`]) and every sweep
//! layered on it ([`crate::sweep::sweep`],
//! [`crate::sweep::sweep_pruned`]) never abort a whole sweep because one
//! design point is bad: each point's failure is captured as a
//! [`SweepPointError`] carrying the point's position in the sweep, its
//! design label, and a structured [`PointCause`]. The cause is either a
//! build-time rejection (the design or geometry failed validation) or a
//! caught panic from inside the simulation.
//!
//! Failure values are **deterministic**: a given bad design point
//! produces the same `SweepPointError` — byte-identical `Display`
//! rendering included — for every worker-thread count, so the failed
//! point *set* of a sweep is part of the determinism contract pinned by
//! `crates/sim/tests/fault_tolerance.rs`.

use std::fmt;

use crate::system::BuildSystemError;

/// Why one sweep point failed.
#[derive(Debug, Clone)]
pub enum PointCause {
    /// The design point was rejected while assembling its [`System`]
    /// (invalid design or cache geometry).
    ///
    /// [`System`]: crate::system::System
    Build(BuildSystemError),
    /// The simulation panicked; the payload message is preserved.
    Panic(String),
}

impl fmt::Display for PointCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointCause::Build(e) => write!(f, "build failed: {e}"),
            PointCause::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Failure of one design point inside a sweep.
///
/// # Examples
///
/// ```
/// use moca_core::L2Design;
/// use moca_sim::parallel::Jobs;
/// use moca_sim::sweep::sweep;
/// use moca_trace::AppProfile;
///
/// // ways = 0 is invalid; the other point still completes.
/// let points = sweep(
///     &[0u32, 4],
///     |&ways| L2Design::SharedSram { ways },
///     &AppProfile::music(),
///     10_000,
///     1,
///     Jobs::SERIAL,
/// );
/// let err = points[0].as_ref().unwrap_err();
/// assert_eq!(err.index, 0);
/// assert!(err.to_string().contains("build failed"));
/// assert!(points[1].is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct SweepPointError {
    /// Position of the failed point in the sweep's input order.
    pub index: usize,
    /// The design's human-readable label ([`moca_core::L2Design::label`]).
    pub label: String,
    /// What went wrong.
    pub cause: PointCause,
}

impl fmt::Display for SweepPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep point {} ({}): {}", self.index, self.label, self.cause)
    }
}

impl std::error::Error for SweepPointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            PointCause::Build(e) => Some(e),
            PointCause::Panic(_) => None,
        }
    }
}

impl SweepPointError {
    /// A stable one-line identity used to compare failed-point *sets*
    /// across job counts: `index`, `label`, and the rendered cause.
    pub fn identity(&self) -> String {
        self.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moca_core::DesignError;

    fn sample() -> SweepPointError {
        SweepPointError {
            index: 3,
            label: "SRAM-shared-0w".into(),
            cause: PointCause::Build(BuildSystemError::Design(DesignError::ZeroWays(
                "shared cache",
            ))),
        }
    }

    #[test]
    fn display_carries_index_label_and_cause() {
        let e = sample();
        let s = e.to_string();
        assert!(s.contains("point 3"), "{s}");
        assert!(s.contains("SRAM-shared-0w"), "{s}");
        assert!(s.contains("build failed"), "{s}");
        assert_eq!(e.identity(), s);
    }

    #[test]
    fn source_chains_to_build_error() {
        use std::error::Error;
        assert!(sample().source().is_some());
        let p = SweepPointError {
            index: 0,
            label: "x".into(),
            cause: PointCause::Panic("boom".into()),
        };
        assert!(p.source().is_none());
        assert!(p.to_string().contains("panicked: boom"));
    }
}
