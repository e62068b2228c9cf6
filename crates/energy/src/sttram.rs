//! Analytic STT-RAM bank model with retention-dependent writes.
//!
//! The MTJ write cost is driven by the thermal stability factor Δ of the
//! cell (see [`RetentionClass`]): the switching current grows roughly
//! linearly with Δ, so write **energy** grows ~quadratically
//! (`E ∝ I²·t`) and write **latency** grows super-linearly. Read cost and
//! latency are Δ-independent (sensing, not switching). Cell leakage is
//! zero; only the CMOS periphery leaks.
//!
//! Anchors at 45 nm, 1 MiB, 16-way, matching the relative operating
//! points reported by the multi-retention STT-RAM cache literature
//! (Smullen+ HPCA'11, Sun+ DAC'11, Jog+ DAC'12):
//!
//! | quantity | anchor |
//! |----------|--------|
//! | read energy | 0.75 nJ (≈ 0.94× SRAM) |
//! | read latency | 11 ns (≈ 1.1× SRAM) |
//! | write energy @Δ=40 | 3.5 nJ (≈ 4× SRAM write) |
//! | write latency @Δ=40 | 1.5 + 8.5·(Δ/40)^1.5 ns → 10 ns |
//! | leakage | 8 % of equal-capacity SRAM |

use crate::retention::RetentionClass;
use crate::sram::{SramBank, ANCHOR_CAPACITY, ANCHOR_WAYS};
use crate::tech::MemoryTechnology;
use crate::units::{Energy, Power, Time};

/// Read energy at the anchor geometry.
const ANCHOR_READ_NJ: f64 = 0.75;
/// Read latency at the anchor geometry.
const ANCHOR_READ_LAT_NS: f64 = 11.0;
/// MTJ write energy at Δ = 40 (10-year retention), anchor geometry.
const ANCHOR_WRITE_NJ_D40: f64 = 3.5;
/// Reference Δ for the anchors.
const DELTA_REF: f64 = 40.0;
/// Fixed component of write latency (periphery), ns.
const WRITE_LAT_BASE_NS: f64 = 1.5;
/// Δ-dependent component of write latency at Δ = 40, ns.
const WRITE_LAT_DELTA_NS: f64 = 8.5;
/// Periphery leakage as a fraction of equal-capacity SRAM leakage.
const LEAKAGE_FRACTION: f64 = 0.08;
/// Fraction of the read path a write re-traverses before the pulse.
const WRITE_PERIPHERY_SHARE: f64 = 0.6;
/// STT-RAM cell area relative to a 6T SRAM cell.
pub const CELL_AREA_RATIO: f64 = 1.0 / 3.0;

/// An STT-RAM bank's operating parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SttRamBank {
    capacity: u64,
    ways: u32,
    retention: RetentionClass,
    read_energy: Energy,
    write_energy: Energy,
    leakage: Power,
    read_latency: Time,
    write_latency: Time,
}

impl SttRamBank {
    /// Models a bank with the given retention class.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` or `ways` is zero, or the retention time
    /// is non-positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use moca_energy::{MemoryTechnology, RetentionClass, SttRamBank};
    ///
    /// let hi = SttRamBank::new(1 << 20, 16, RetentionClass::TenYears);
    /// let lo = SttRamBank::new(1 << 20, 16, RetentionClass::TenMillis);
    /// // Shorter retention makes writes much cheaper and faster.
    /// assert!(lo.write_energy().nj() < 0.4 * hi.write_energy().nj());
    /// assert!(lo.write_latency().ns() < hi.write_latency().ns());
    /// ```
    pub fn new(capacity_bytes: u64, ways: u32, retention: RetentionClass) -> Self {
        assert!(capacity_bytes > 0, "capacity must be non-zero");
        assert!(ways > 0, "ways must be non-zero");
        let delta = retention.delta();
        let c = capacity_bytes as f64 / ANCHOR_CAPACITY as f64;
        let a = f64::from(ways) / f64::from(ANCHOR_WAYS);
        let periph_scale = c.powf(0.5) * a.powf(0.15);

        // Read path: sensing only, Δ-independent; scales like SRAM
        // periphery.
        let read_energy = Energy::from_nj(ANCHOR_READ_NJ * periph_scale);
        let read_latency = Time::from_ns(ANCHOR_READ_LAT_NS * c.powf(0.3));

        // Write path: MTJ switching dominates. E ∝ (Δ/Δref)² with a small
        // periphery component that scales like reads.
        let mtj = ANCHOR_WRITE_NJ_D40 * (delta / DELTA_REF).powi(2);
        let periphery = 0.40 * periph_scale;
        let write_energy = Energy::from_nj(mtj + periphery);

        // A write traverses most of the read periphery (decode, drivers)
        // before the MTJ switching pulse, so total write latency is the
        // periphery share of the read path plus the Δ-dependent pulse.
        let pulse_ns = WRITE_LAT_BASE_NS + WRITE_LAT_DELTA_NS * (delta / DELTA_REF).powf(1.5);
        let write_latency = Time::from_ns(read_latency.ns() * WRITE_PERIPHERY_SHARE + pulse_ns);

        // Leakage: periphery only, a fixed fraction of equal SRAM.
        let sram_equiv = SramBank::new(capacity_bytes, ways);
        let leakage = sram_equiv.leakage_power().scaled(LEAKAGE_FRACTION);

        Self {
            capacity: capacity_bytes,
            ways,
            retention,
            read_energy,
            write_energy,
            leakage,
            read_latency,
            write_latency,
        }
    }

    /// The retention class of this bank's cells.
    pub fn retention(&self) -> RetentionClass {
        self.retention
    }

    /// Associativity the bank was modelled with.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Leakage power of a single way.
    pub fn way_leakage(&self) -> Power {
        self.leakage.scaled(1.0 / f64::from(self.ways))
    }
}

impl MemoryTechnology for SttRamBank {
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
        self.read_latency
    }

    fn write_latency(&self) -> Time {
        self.write_latency
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn label(&self) -> &'static str {
        "STT-RAM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(rc: RetentionClass) -> SttRamBank {
        SttRamBank::new(1 << 20, 16, rc)
    }

    #[test]
    fn anchor_write_cost_at_ten_years() {
        let b = bank(RetentionClass::TenYears);
        // Δ≈40.3 so slightly above the Δ=40 anchor, plus 0.4 nJ periphery.
        assert!(
            (b.write_energy().nj() - 3.96).abs() < 0.2,
            "{}",
            b.write_energy().nj()
        );
        // 0.6 × 11 ns periphery + ~10 ns pulse.
        assert!(
            (b.write_latency().ns() - 16.7).abs() < 0.7,
            "{}",
            b.write_latency().ns()
        );
        assert_eq!(b.label(), "STT-RAM");
    }

    #[test]
    fn leakage_is_small_fraction_of_sram() {
        let stt = bank(RetentionClass::TenYears);
        let sram = SramBank::new(1 << 20, 16);
        let frac = stt.leakage_power().mw() / sram.leakage_power().mw();
        assert!((frac - 0.08).abs() < 1e-9);
    }

    #[test]
    fn retention_independent_reads() {
        let hi = bank(RetentionClass::TenYears);
        let lo = bank(RetentionClass::TenMillis);
        assert_eq!(hi.read_energy(), lo.read_energy());
        assert_eq!(hi.read_latency(), lo.read_latency());
        assert_eq!(hi.leakage_power(), lo.leakage_power());
    }

    #[test]
    fn write_cost_monotone_in_retention() {
        let mut prev_e = f64::INFINITY;
        let mut prev_l = f64::INFINITY;
        for rc in RetentionClass::SWEEP {
            let b = bank(rc);
            assert!(b.write_energy().nj() < prev_e);
            assert!(b.write_latency().ns() < prev_l);
            prev_e = b.write_energy().nj();
            prev_l = b.write_latency().ns();
        }
    }

    #[test]
    fn short_retention_write_approaches_read_cost_scale() {
        let lo = bank(RetentionClass::TenMillis);
        // Low-retention writes should be within ~2x of reads — the point
        // of the paper's short-retention kernel segment.
        let ratio = lo.write_energy().nj() / lo.read_energy().nj();
        assert!(ratio < 3.0, "write/read ratio {ratio}");
    }

    #[test]
    fn reads_cheaper_than_sram_writes_slower() {
        let stt = bank(RetentionClass::TenYears);
        let sram = SramBank::new(1 << 20, 16);
        assert!(stt.read_energy().nj() < sram.read_energy().nj());
        assert!(stt.write_latency().ns() > sram.write_latency().ns() * 0.9);
        assert!(stt.read_latency().ns() >= sram.read_latency().ns());
    }

    #[test]
    fn way_leakage_partitions_total() {
        let b = bank(RetentionClass::OneSecond);
        assert!((b.way_leakage().mw() * 16.0 - b.leakage_power().mw()).abs() < 1e-9);
        assert_eq!(b.ways(), 16);
    }

    #[test]
    fn capacity_scaling_applies_to_periphery() {
        let small = SttRamBank::new(256 << 10, 16, RetentionClass::TenYears);
        let big = SttRamBank::new(4 << 20, 16, RetentionClass::TenYears);
        assert!(small.read_energy().nj() < big.read_energy().nj());
        assert!(small.leakage_power().mw() < big.leakage_power().mw());
        // MTJ component dominates writes, so write energy grows slowly.
        let ratio = big.write_energy().nj() / small.write_energy().nj();
        assert!(
            ratio < 1.3,
            "write energy should be MTJ-dominated, got {ratio}"
        );
    }
}
