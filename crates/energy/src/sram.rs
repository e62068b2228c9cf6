//! Analytic SRAM bank model.
//!
//! A CACTI-style model reduced to the relationships that drive the paper's
//! conclusions, anchored at a 45 nm, 1 MiB, 16-way bank:
//!
//! | quantity | anchor value | scaling with capacity `C`, assoc `A` |
//! |----------|--------------|---------------------------------------|
//! | read energy  | 0.80 nJ  | `(C/C0)^0.5 · (A/A0)^0.15`            |
//! | write energy | 0.85 nJ  | same as read                          |
//! | leakage      | 80 mW    | `C/C0` (cell count)                   |
//! | latency      | 10 ns    | `(C/C0)^0.3`                          |
//!
//! The square-root capacity exponent models bitline/wordline growth; the
//! linear leakage captures that every cell leaks whether used or not —
//! which is exactly why shrinking and power-gating a mobile L2 saves so
//! much (claims C3/C7).

use crate::tech::MemoryTechnology;
use crate::units::{Energy, Power, Time};

/// Calibration anchor capacity (1 MiB).
pub const ANCHOR_CAPACITY: u64 = 1 << 20;
/// Calibration anchor associativity.
pub const ANCHOR_WAYS: u32 = 16;
/// Anchor read energy.
const ANCHOR_READ_NJ: f64 = 0.80;
/// Anchor write energy.
const ANCHOR_WRITE_NJ: f64 = 0.85;
/// Anchor leakage power.
const ANCHOR_LEAK_MW: f64 = 80.0;
/// Anchor access latency.
const ANCHOR_LATENCY_NS: f64 = 10.0;

/// An SRAM bank's operating parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramBank {
    capacity: u64,
    ways: u32,
    read_energy: Energy,
    write_energy: Energy,
    leakage: Power,
    latency: Time,
}

impl SramBank {
    /// Models a bank of the given capacity and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` or `ways` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_energy::{SramBank, MemoryTechnology};
    ///
    /// let l2 = SramBank::new(2 << 20, 16);
    /// let half = SramBank::new(1 << 20, 16);
    /// // Leakage scales linearly with capacity.
    /// assert!((l2.leakage_power().mw() / half.leakage_power().mw() - 2.0).abs() < 1e-9);
    /// ```
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        assert!(capacity_bytes > 0, "capacity must be non-zero");
        assert!(ways > 0, "ways must be non-zero");
        let c = capacity_bytes as f64 / ANCHOR_CAPACITY as f64;
        let a = f64::from(ways) / f64::from(ANCHOR_WAYS);
        let dyn_scale = c.powf(0.5) * a.powf(0.15);
        Self {
            capacity: capacity_bytes,
            ways,
            read_energy: Energy::from_nj(ANCHOR_READ_NJ * dyn_scale),
            write_energy: Energy::from_nj(ANCHOR_WRITE_NJ * dyn_scale),
            leakage: Power::from_mw(ANCHOR_LEAK_MW * c),
            latency: Time::from_ns(ANCHOR_LATENCY_NS * c.powf(0.3)),
        }
    }

    /// Associativity the bank was modelled with.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Leakage power of a single way (`leakage / ways`), the granularity
    /// of way power-gating.
    pub fn way_leakage(&self) -> Power {
        self.leakage.scaled(1.0 / f64::from(self.ways))
    }
}

impl MemoryTechnology for SramBank {
    fn read_energy(&self) -> Energy {
        self.read_energy
    }

    fn write_energy(&self) -> Energy {
        self.write_energy
    }

    fn leakage_power(&self) -> Power {
        self.leakage
    }

    fn read_latency(&self) -> Time {
        self.latency
    }

    fn write_latency(&self) -> Time {
        self.latency
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn label(&self) -> &'static str {
        "SRAM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_values() {
        let b = SramBank::new(ANCHOR_CAPACITY, ANCHOR_WAYS);
        assert!((b.read_energy().nj() - ANCHOR_READ_NJ).abs() < 1e-9);
        assert!((b.write_energy().nj() - ANCHOR_WRITE_NJ).abs() < 1e-9);
        assert!((b.leakage_power().mw() - ANCHOR_LEAK_MW).abs() < 1e-9);
        assert!((b.read_latency().ns() - ANCHOR_LATENCY_NS).abs() < 1e-9);
        assert_eq!(b.label(), "SRAM");
    }

    #[test]
    fn leakage_linear_in_capacity() {
        let one = SramBank::new(1 << 20, 16);
        let four = SramBank::new(4 << 20, 16);
        let ratio = four.leakage_power().mw() / one.leakage_power().mw();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_energy_sublinear_in_capacity() {
        let one = SramBank::new(1 << 20, 16);
        let four = SramBank::new(4 << 20, 16);
        let ratio = four.read_energy().nj() / one.read_energy().nj();
        assert!(ratio > 1.5 && ratio < 2.5, "sqrt-ish scaling, got {ratio}");
    }

    #[test]
    fn associativity_increases_access_energy() {
        let a8 = SramBank::new(1 << 20, 8);
        let a16 = SramBank::new(1 << 20, 16);
        assert!(a16.read_energy().nj() > a8.read_energy().nj());
    }

    #[test]
    fn way_leakage_partitions_total() {
        let b = SramBank::new(2 << 20, 16);
        let total = b.way_leakage().mw() * 16.0;
        assert!((total - b.leakage_power().mw()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        SramBank::new(0, 16);
    }
}
