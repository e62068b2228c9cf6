//! Silicon-area model.
//!
//! The paper's STT-RAM argument is not only about energy: an MTJ cell is
//! roughly a third of a 6T SRAM cell, so the proposed designs also shrink
//! the L2's die area (or, equivalently, triple its capacity per mm²).
//! This module provides a simple cell-count area model used by the area
//! extension experiment (A1).

use crate::accounting::Technology;
use crate::projection::ArithmeticOverflow;
use crate::sttram::CELL_AREA_RATIO;

/// Area of a 6T SRAM bitcell at the 45 nm anchor node, in µm².
pub const SRAM_CELL_UM2: f64 = 0.40;

/// Periphery (decoders, sense amps, wiring) overhead as a fraction of the
/// cell-array area.
pub const PERIPHERY_OVERHEAD: f64 = 0.35;

/// Area in mm² of a memory array of `capacity_bytes` using cells of
/// `cell_um2` µm², including periphery overhead.
///
/// # Panics
///
/// Panics if `cell_um2` is not positive.
pub fn array_area_mm2(capacity_bytes: u64, cell_um2: f64) -> f64 {
    assert!(cell_um2 > 0.0, "cell area must be positive");
    let bits = capacity_bytes as f64 * 8.0;
    bits * cell_um2 * (1.0 + PERIPHERY_OVERHEAD) / 1e6
}

/// Checked bank capacity from a per-way size and a physical way count.
///
/// Design-space searches build capacities as `way_bytes × ways` for
/// arbitrary genome values; this is the one place that product is
/// formed, so the wrap is caught here rather than surfacing as a
/// nonsense area.
///
/// # Errors
///
/// [`ArithmeticOverflow`] if the product exceeds `u64::MAX`.
pub fn try_capacity_bytes(way_bytes: u64, physical_ways: u32) -> Result<u64, ArithmeticOverflow> {
    way_bytes
        .checked_mul(u64::from(physical_ways))
        .ok_or(ArithmeticOverflow {
            what: "bank capacity (way bytes × ways)",
        })
}

/// Checked variant of [`array_area_mm2`]: same model, but the bit count
/// is validated against `f64`'s exact-integer range so a huge capacity
/// cannot silently lose precision.
///
/// # Errors
///
/// [`ArithmeticOverflow`] if `capacity_bytes × 8` overflows or exceeds
/// the exactly-representable `f64` integer range (2⁵³).
///
/// # Panics
///
/// Panics if `cell_um2` is not positive (same contract as
/// [`array_area_mm2`]).
pub fn try_array_area_mm2(capacity_bytes: u64, cell_um2: f64) -> Result<f64, ArithmeticOverflow> {
    capacity_bytes
        .checked_mul(8)
        .filter(|&bits| bits <= (1u64 << 53))
        .ok_or(ArithmeticOverflow {
            what: "array bit count (capacity × 8)",
        })?;
    Ok(array_area_mm2(capacity_bytes, cell_um2))
}

/// Area in mm² of a [`Technology`] bank (SRAM or STT-RAM cells).
pub fn bank_area_mm2(bank: &Technology) -> f64 {
    use crate::tech::MemoryTechnology;
    let cell = match bank {
        Technology::Sram(_) => SRAM_CELL_UM2,
        Technology::SttRam(_) => SRAM_CELL_UM2 * CELL_AREA_RATIO,
    };
    array_area_mm2(bank.capacity_bytes(), cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::RetentionClass;

    #[test]
    fn two_mib_sram_is_a_few_square_millimetres() {
        let a = array_area_mm2(2 << 20, SRAM_CELL_UM2);
        // 16.8 Mbit × 0.4 µm² × 1.35 ≈ 9.1 mm².
        assert!((a - 9.06).abs() < 0.1, "area {a}");
    }

    #[test]
    fn sttram_is_about_a_third_of_sram() {
        let sram = bank_area_mm2(&Technology::sram(2 << 20, 16));
        let stt = bank_area_mm2(&Technology::sttram(2 << 20, 16, RetentionClass::TenMillis));
        let ratio = stt / sram;
        assert!((ratio - CELL_AREA_RATIO).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn area_scales_linearly_with_capacity() {
        let one = array_area_mm2(1 << 20, SRAM_CELL_UM2);
        let four = array_area_mm2(4 << 20, SRAM_CELL_UM2);
        assert!((four / one - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_area_panics() {
        array_area_mm2(1 << 20, 0.0);
    }

    #[test]
    fn try_capacity_bytes_boundary() {
        assert_eq!(try_capacity_bytes(128 << 10, 16).expect("fits"), 2 << 20);
        assert_eq!(
            try_capacity_bytes(u64::MAX / 2, 2).expect("fits"),
            u64::MAX - 1
        );
        let err = try_capacity_bytes(u64::MAX / 2 + 1, 2).unwrap_err();
        assert!(err.to_string().contains("bank capacity"));
    }

    #[test]
    fn try_array_area_matches_unchecked_in_range() {
        let a = try_array_area_mm2(2 << 20, SRAM_CELL_UM2).expect("in range");
        assert_eq!(a, array_area_mm2(2 << 20, SRAM_CELL_UM2));
        // Beyond 2^53 bits the f64 conversion would round: refuse it.
        assert!(try_array_area_mm2(u64::MAX, SRAM_CELL_UM2).is_err());
        assert!(try_array_area_mm2((1u64 << 53) / 8 + 1, SRAM_CELL_UM2).is_err());
    }
}
