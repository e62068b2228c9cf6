//! Energy accounting over a simulation run.
//!
//! Cache energy has four components — read dynamic, write dynamic,
//! leakage and refresh — and one rule turns event counts into them:
//! each count × its per-event energy on a concrete [`Technology`], plus
//! the bank's leakage power × the time it was live. [`EnergyAccountant`]
//! keeps integer counts for its current bank and applies the rule once
//! per bank interval; [`crate::project_energy`] applies the same rule to
//! projected counts. The resulting [`EnergyBreakdown`] is what the
//! paper's energy tables (T2) are built from.

use crate::projection::AccessCounts;
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
    /// Static leakage: leakage power × live time.
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

/// The count rule: `counts` events on `bank`, each at its per-event
/// energy (a refresh is a block write), plus `bank`'s leakage power over
/// `live` time.
pub(crate) fn energy_of(bank: &Technology, counts: &AccessCounts, live: Time) -> EnergyBreakdown {
    EnergyBreakdown {
        read: bank.read_energy() * counts.reads,
        write: bank.write_energy() * counts.writes,
        leakage: bank.leakage_power() * live,
        refresh: bank.write_energy() * counts.refreshes,
    }
}

/// Counts the events of one bank over a run and turns them into energy
/// once per bank interval: when the bank is replaced and when the run
/// ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyAccountant {
    bank: Technology,
    /// Events on the current bank since it became live.
    counts: AccessCounts,
    /// Energy of the intervals already charged.
    charged: EnergyBreakdown,
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
    /// acct.settle(Time::from_ms(1.0));
    /// assert!(acct.breakdown().leakage.nj() > 0.0);
    /// ```
    pub fn new(bank: Technology) -> Self {
        Self {
            bank,
            counts: AccessCounts::default(),
            charged: EnergyBreakdown::new(),
        }
    }

    /// Charges the current bank's counts and its `live` time, then
    /// replaces it with `bank` (a segment re-sized).
    pub fn set_bank(&mut self, bank: Technology, live: Time) {
        self.settle(live);
        self.bank = bank;
    }

    /// Charges the current bank's counts and its `live` time (the run
    /// ended); the bank stays current.
    pub fn settle(&mut self, live: Time) {
        self.charged
            .merge(&energy_of(&self.bank, &self.counts, live));
        self.counts = AccessCounts::default();
    }

    /// Records `n` read accesses.
    pub fn record_reads(&mut self, n: u64) {
        self.counts.reads += n;
    }

    /// Records `n` write accesses.
    pub fn record_writes(&mut self, n: u64) {
        self.counts.writes += n;
    }

    /// Records `n` refresh block-writes.
    pub fn record_refreshes(&mut self, n: u64) {
        self.counts.refreshes += n;
    }

    /// The energy charged so far plus the dynamic energy of the counts
    /// not yet charged; leakage shows once the interval is settled.
    pub fn breakdown(&self) -> EnergyBreakdown {
        let mut b = self.charged;
        b.merge(&energy_of(&self.bank, &self.counts, Time::ZERO));
        b
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
    fn refresh_uses_write_energy() {
        let bank = Technology::sttram(1 << 20, 16, RetentionClass::TenMillis);
        let mut a = EnergyAccountant::new(bank);
        a.record_refreshes(3);
        assert_eq!(a.breakdown().refresh, bank.write_energy() * 3);
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
    fn set_bank_charges_the_old_bank_and_keeps_its_energy() {
        let big = Technology::sram(1 << 20, 16);
        let small = Technology::sram(512 << 10, 8);
        let mut a = EnergyAccountant::new(big);
        a.record_reads(100);
        // Uncharged counts already show, without leakage.
        assert_eq!(a.breakdown().read, big.read_energy() * 100);
        assert_eq!(a.breakdown().leakage, Energy::ZERO);
        a.set_bank(small, Time::from_us(2.0));
        a.record_reads(10);
        a.settle(Time::from_us(3.0));
        let b = a.breakdown();
        assert_eq!(b.read, big.read_energy() * 100 + small.read_energy() * 10);
        let leak =
            big.leakage_power() * Time::from_us(2.0) + small.leakage_power() * Time::from_us(3.0);
        assert_eq!(b.leakage, leak);
    }

    #[test]
    fn display_mentions_components() {
        let mut b = EnergyBreakdown::new();
        b.read = Energy::from_nj(1.0);
        let s = b.to_string();
        assert!(s.contains("read") && s.contains("leak"));
    }
}
