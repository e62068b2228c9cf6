//! Energy accounting over a simulation run.
//!
//! [`EnergyAccountant`] integrates the four components of cache energy —
//! read dynamic, write dynamic, leakage over time (scaled by the active
//! way fraction, modelling power gating), and refresh — against a
//! concrete [`Technology`]. The resulting [`EnergyBreakdown`] is what the
//! paper's energy tables (T2) are built from.

use crate::retention::RetentionClass;
use crate::sram::SramBank;
use crate::sttram::SttRamBank;
use crate::tech::MemoryTechnology;
use crate::units::{Energy, Power, Time};

/// A concrete memory technology for a cache segment.
///
/// A closed enum (rather than a trait object) so simulator state stays
/// `Copy`, comparable, and serializable to reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technology {
    /// SRAM bank.
    Sram(SramBank),
    /// STT-RAM bank.
    SttRam(SttRamBank),
}

impl Technology {
    /// Convenience: an SRAM bank.
    pub fn sram(capacity_bytes: u64, ways: u32) -> Self {
        Technology::Sram(SramBank::new(capacity_bytes, ways))
    }

    /// Convenience: an STT-RAM bank.
    pub fn sttram(capacity_bytes: u64, ways: u32, retention: RetentionClass) -> Self {
        Technology::SttRam(SttRamBank::new(capacity_bytes, ways, retention))
    }

    /// The retention class, if this is an STT-RAM bank.
    pub fn retention(&self) -> Option<RetentionClass> {
        match self {
            Technology::Sram(_) => None,
            Technology::SttRam(b) => Some(b.retention()),
        }
    }
}

impl MemoryTechnology for Technology {
    fn read_energy(&self) -> Energy {
        match self {
            Technology::Sram(b) => b.read_energy(),
            Technology::SttRam(b) => b.read_energy(),
        }
    }

    fn write_energy(&self) -> Energy {
        match self {
            Technology::Sram(b) => b.write_energy(),
            Technology::SttRam(b) => b.write_energy(),
        }
    }

    fn leakage_power(&self) -> Power {
        match self {
            Technology::Sram(b) => b.leakage_power(),
            Technology::SttRam(b) => b.leakage_power(),
        }
    }

    fn read_latency(&self) -> Time {
        match self {
            Technology::Sram(b) => b.read_latency(),
            Technology::SttRam(b) => b.read_latency(),
        }
    }

    fn write_latency(&self) -> Time {
        match self {
            Technology::Sram(b) => b.write_latency(),
            Technology::SttRam(b) => b.write_latency(),
        }
    }

    fn capacity_bytes(&self) -> u64 {
        match self {
            Technology::Sram(b) => b.capacity_bytes(),
            Technology::SttRam(b) => b.capacity_bytes(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Technology::Sram(b) => b.label(),
            Technology::SttRam(b) => b.label(),
        }
    }
}

/// Energy totals split by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic energy of read accesses.
    pub read: Energy,
    /// Dynamic energy of write accesses.
    pub write: Energy,
    /// Static leakage integrated over time.
    pub leakage: Energy,
    /// Refresh / expiry-handling writes (STT-RAM only).
    pub refresh: Energy,
}

impl EnergyBreakdown {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total energy.
    pub fn total(&self) -> Energy {
        self.read + self.write + self.leakage + self.refresh
    }

    /// Dynamic (read + write) energy.
    pub fn dynamic(&self) -> Energy {
        self.read + self.write
    }

    /// Leakage share of the total (`0.0` for an empty breakdown).
    pub fn leakage_fraction(&self) -> f64 {
        let t = self.total().pj();
        if t == 0.0 {
            0.0
        } else {
            self.leakage.pj() / t
        }
    }

    /// Total relative to a baseline's total.
    ///
    /// Returns `f64::NAN` if the baseline total is zero.
    pub fn normalized_to(&self, baseline: &EnergyBreakdown) -> f64 {
        self.total().ratio_to(baseline.total())
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.read += other.read;
        self.write += other.write;
        self.leakage += other.leakage;
        self.refresh += other.refresh;
    }
}

impl std::fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {} (read {}, write {}, leak {}, refresh {})",
            self.total(),
            self.read,
            self.write,
            self.leakage,
            self.refresh
        )
    }
}

/// Integrates energy for one bank over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyAccountant {
    bank: Technology,
    breakdown: EnergyBreakdown,
}

impl EnergyAccountant {
    /// Creates an accountant for `bank`.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_energy::{EnergyAccountant, Technology, Time};
    ///
    /// let mut acct = EnergyAccountant::new(Technology::sram(1 << 20, 16));
    /// acct.record_reads(1000);
    /// acct.accrue_leakage(Time::from_ms(1.0), 1.0);
    /// assert!(acct.breakdown().leakage.nj() > 0.0);
    /// ```
    pub fn new(bank: Technology) -> Self {
        Self {
            bank,
            breakdown: EnergyBreakdown::new(),
        }
    }

    /// The bank being accounted.
    pub fn bank(&self) -> &Technology {
        &self.bank
    }

    /// Replaces the bank model (used when a segment is re-sized); energy
    /// already accrued is kept.
    pub fn set_bank(&mut self, bank: Technology) {
        self.bank = bank;
    }

    /// Records `n` read accesses.
    pub fn record_reads(&mut self, n: u64) {
        self.breakdown.read += self.bank.read_energy() * n;
    }

    /// Records `n` write accesses.
    pub fn record_writes(&mut self, n: u64) {
        self.breakdown.write += self.bank.write_energy() * n;
    }

    /// Records `n` refresh block-writes.
    pub fn record_refreshes(&mut self, n: u64) {
        self.breakdown.refresh += self.bank.write_energy() * n;
    }

    /// Accrues leakage for `elapsed` wall-clock time with the given
    /// fraction of the bank powered on (way power-gating).
    ///
    /// # Panics
    ///
    /// Panics if `active_fraction` is outside `[0, 1]`.
    pub fn accrue_leakage(&mut self, elapsed: Time, active_fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&active_fraction),
            "active fraction must be in [0,1], got {active_fraction}"
        );
        self.breakdown.leakage += self.bank.leakage_power().scaled(active_fraction) * elapsed;
    }

    /// The accumulated breakdown.
    pub fn breakdown(&self) -> &EnergyBreakdown {
        &self.breakdown
    }

    /// Resets accumulated energy to zero.
    pub fn reset(&mut self) {
        self.breakdown = EnergyBreakdown::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technology_delegates() {
        let sram = Technology::sram(1 << 20, 16);
        let stt = Technology::sttram(1 << 20, 16, RetentionClass::OneSecond);
        assert_eq!(sram.label(), "SRAM");
        assert_eq!(stt.label(), "STT-RAM");
        assert_eq!(sram.capacity_bytes(), 1 << 20);
        assert!(stt.leakage_power().mw() < sram.leakage_power().mw());
        assert_eq!(sram.retention(), None);
        assert_eq!(stt.retention(), Some(RetentionClass::OneSecond));
    }

    #[test]
    fn accountant_sums_components() {
        let mut a = EnergyAccountant::new(Technology::sram(1 << 20, 16));
        a.record_reads(10);
        a.record_writes(5);
        a.accrue_leakage(Time::from_us(1.0), 1.0);
        let b = a.breakdown();
        let read = a.bank().read_energy() * 10;
        let write = a.bank().write_energy() * 5;
        assert!((b.read.pj() - read.pj()).abs() < 1e-9);
        assert!((b.write.pj() - write.pj()).abs() < 1e-9);
        assert!(b.leakage.pj() > 0.0);
        assert_eq!(b.refresh, Energy::ZERO);
        assert!((b.total().pj() - (b.read + b.write + b.leakage).pj()).abs() < 1e-9);
    }

    #[test]
    fn power_gating_halves_leakage() {
        let mk = || EnergyAccountant::new(Technology::sram(1 << 20, 16));
        let mut full = mk();
        full.accrue_leakage(Time::from_ms(1.0), 1.0);
        let mut half = mk();
        half.accrue_leakage(Time::from_ms(1.0), 0.5);
        let ratio = half.breakdown().leakage.pj() / full.breakdown().leakage.pj();
        assert!((ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn refresh_uses_write_energy() {
        let mut a =
            EnergyAccountant::new(Technology::sttram(1 << 20, 16, RetentionClass::TenMillis));
        a.record_refreshes(3);
        let expected = a.bank().write_energy() * 3;
        assert!((a.breakdown().refresh.pj() - expected.pj()).abs() < 1e-9);
    }

    #[test]
    fn breakdown_normalization_and_merge() {
        let mut base = EnergyBreakdown::new();
        base.read = Energy::from_nj(8.0);
        base.leakage = Energy::from_nj(2.0);
        let mut x = EnergyBreakdown::new();
        x.read = Energy::from_nj(1.0);
        x.write = Energy::from_nj(1.0);
        x.refresh = Energy::from_nj(0.5);
        assert!((x.normalized_to(&base) - 0.25).abs() < 1e-12);
        assert!((base.leakage_fraction() - 0.2).abs() < 1e-12);
        let mut m = base;
        m.merge(&x);
        assert!((m.total().nj() - 12.5).abs() < 1e-9);
        assert!((m.dynamic().nj() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn set_bank_keeps_accrued_energy() {
        let mut a = EnergyAccountant::new(Technology::sram(1 << 20, 16));
        a.record_reads(100);
        let before = a.breakdown().read;
        a.set_bank(Technology::sram(512 << 10, 8));
        assert_eq!(a.breakdown().read, before);
        assert_eq!(a.bank().capacity_bytes(), 512 << 10);
    }

    #[test]
    fn reset_zeroes() {
        let mut a = EnergyAccountant::new(Technology::sram(1 << 20, 16));
        a.record_reads(1);
        a.reset();
        assert_eq!(a.breakdown().total(), Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "active fraction")]
    fn bad_active_fraction_panics() {
        let mut a = EnergyAccountant::new(Technology::sram(1 << 20, 16));
        a.accrue_leakage(Time::from_ns(1.0), 1.5);
    }

    #[test]
    fn display_mentions_components() {
        let mut b = EnergyBreakdown::new();
        b.read = Energy::from_nj(1.0);
        let s = b.to_string();
        assert!(s.contains("read") && s.contains("leak"));
    }
}
