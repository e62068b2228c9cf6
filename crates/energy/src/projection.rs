//! Analytical energy projection from access counts.
//!
//! A miss-rate curve produces the event *counts* of a whole design grid
//! without running any of the simulations. [`project_energy`] turns
//! counts into energy with the simulator's own count rule — each count ×
//! its per-event energy on the bank [`Technology`], plus leakage power ×
//! elapsed time — so a projection and a simulation that agree on the
//! counts and the cycles agree on the energy bit for bit.
//!
//! The projection is the cheap evaluator behind MRC-based sweep
//! pruning (`moca_sim::sweep`): it ranks LRU grid points analytically
//! so only the Pareto-surviving candidates pay for a full timing run.

use crate::accounting::{energy_of, EnergyBreakdown, Technology};
use crate::units::Time;

/// Integer overflow while combining event counts or capacities for an
/// energy/area projection.
///
/// Long-running design-space searches multiply per-reference costs by
/// reference counts billions of times; a silent two's-complement wrap
/// there would corrupt a Pareto front without any visible failure. The
/// checked entry points ([`AccessCounts::try_write_allocate`],
/// [`crate::area::try_capacity_bytes`]) surface the wrap as this
/// structured error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithmeticOverflow {
    /// The product or sum that overflowed (e.g. `"array reads"`).
    pub what: &'static str,
}

impl std::fmt::Display for ArithmeticOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arithmetic overflow computing {}", self.what)
    }
}

impl std::error::Error for ArithmeticOverflow {}

/// Array access counts of one projected cache configuration.
///
/// For a write-allocate LRU cache these derive directly from a miss-rate
/// curve: every read hit is one array read, every write hit one array
/// write, and every miss one array read (the probe) plus one array
/// write (the fill).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Array read operations.
    pub reads: u64,
    /// Array write operations.
    pub writes: u64,
    /// Refresh block-writes (STT-RAM retention handling; zero for SRAM).
    pub refreshes: u64,
}

impl AccessCounts {
    /// Counts for a write-allocate cache with the given hit/miss split:
    /// `read_hits + misses` array reads and `write_hits + misses` array
    /// writes, no refreshes.
    ///
    /// Saturates at `u64::MAX` instead of wrapping; callers that need
    /// the overflow surfaced use [`AccessCounts::try_write_allocate`].
    pub fn write_allocate(read_hits: u64, write_hits: u64, misses: u64) -> Self {
        AccessCounts {
            reads: read_hits.saturating_add(misses),
            writes: write_hits.saturating_add(misses),
            refreshes: 0,
        }
    }

    /// Checked variant of [`AccessCounts::write_allocate`].
    ///
    /// # Errors
    ///
    /// [`ArithmeticOverflow`] if either sum exceeds `u64::MAX`.
    pub fn try_write_allocate(
        read_hits: u64,
        write_hits: u64,
        misses: u64,
    ) -> Result<Self, ArithmeticOverflow> {
        let reads = read_hits.checked_add(misses).ok_or(ArithmeticOverflow {
            what: "array reads (read hits + misses)",
        })?;
        let writes = write_hits.checked_add(misses).ok_or(ArithmeticOverflow {
            what: "array writes (write hits + misses)",
        })?;
        Ok(AccessCounts {
            reads,
            writes,
            refreshes: 0,
        })
    }
}

/// Projects the energy of `counts` accesses against `bank`, with
/// leakage over `elapsed` scaled by `active_fraction`, the powered-on
/// share of the bank.
///
/// Every workspace caller passes `1.0`, which makes the result the
/// simulator's energy for the same counts and cycles, bit for bit. The
/// fraction stays in the signature for `reprobench/probe`, which calls
/// the function with four arguments.
///
/// # Examples
///
/// ```
/// use moca_energy::projection::{project_energy, AccessCounts};
/// use moca_energy::{Technology, Time};
///
/// let bank = Technology::sram(2 << 20, 16);
/// let counts = AccessCounts::write_allocate(9_000, 500, 1_000);
/// let b = project_energy(bank, &counts, Time::from_us(50.0), 1.0);
/// assert!(b.read.nj() > 0.0 && b.leakage.nj() > 0.0);
/// ```
pub fn project_energy(
    bank: Technology,
    counts: &AccessCounts,
    elapsed: Time,
    active_fraction: f64,
) -> EnergyBreakdown {
    energy_of(&bank, counts, elapsed.scaled(active_fraction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::EnergyAccountant;

    #[test]
    fn projection_matches_accountant_event_stream() {
        let bank = Technology::sram(1 << 20, 8);
        let counts = AccessCounts {
            reads: 1234,
            writes: 567,
            refreshes: 89,
        };
        let elapsed = Time::from_cycles(3_000, 1.0);
        let projected = project_energy(bank, &counts, elapsed, 1.0);
        // The "simulation": the same events recorded in several batches.
        let mut acct = EnergyAccountant::new(bank);
        acct.record_reads(1000);
        acct.record_writes(500);
        acct.record_reads(234);
        acct.record_refreshes(89);
        acct.record_writes(67);
        acct.settle(elapsed);
        let simulated = acct.breakdown();
        assert_eq!(projected.read, simulated.read);
        assert_eq!(projected.write, simulated.write);
        assert_eq!(projected.leakage, simulated.leakage);
        assert_eq!(projected.refresh, simulated.refresh);
    }

    #[test]
    fn write_allocate_counts_charge_misses_twice() {
        let c = AccessCounts::write_allocate(10, 3, 4);
        assert_eq!(c.reads, 14); // 10 read hits + 4 miss probes
        assert_eq!(c.writes, 7); // 3 write hits + 4 fills
        assert_eq!(c.refreshes, 0);
    }

    #[test]
    fn write_allocate_saturates_instead_of_wrapping() {
        let c = AccessCounts::write_allocate(u64::MAX, 0, 1);
        assert_eq!(c.reads, u64::MAX);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn try_write_allocate_reports_the_boundary() {
        // One below the boundary: fine.
        let ok = AccessCounts::try_write_allocate(u64::MAX - 1, 0, 1).expect("fits");
        assert_eq!(ok.reads, u64::MAX);
        // On the boundary: structured error, not a wrap or a panic.
        let err = AccessCounts::try_write_allocate(u64::MAX, 0, 1).unwrap_err();
        assert!(err.to_string().contains("array reads"));
        let err = AccessCounts::try_write_allocate(0, u64::MAX, 1).unwrap_err();
        assert!(err.to_string().contains("array writes"));
    }

    #[test]
    fn more_misses_project_more_energy() {
        let bank = Technology::sram(1 << 20, 8);
        let t = Time::from_us(1.0);
        let few = project_energy(bank, &AccessCounts::write_allocate(900, 0, 100), t, 1.0);
        let many = project_energy(bank, &AccessCounts::write_allocate(500, 0, 500), t, 1.0);
        assert!(many.total().pj() > few.total().pj());
    }
}
