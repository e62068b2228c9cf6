//! Die temperature and the common memory-bank interface.

use crate::units::{Energy, Power, Time};

/// Die temperature in degrees Celsius.
///
/// Sub-threshold leakage grows roughly exponentially with temperature —
/// a first-order concern in passively-cooled phones. The scale factor
/// doubles leakage every [`LEAKAGE_DOUBLING_C`] degrees relative to the
/// [`Temperature::REFERENCE`] calibration point.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Temperature(f64);

/// Degrees Celsius over which leakage doubles.
pub const LEAKAGE_DOUBLING_C: f64 = 25.0;

impl Temperature {
    /// The calibration reference (all anchor leakage numbers are quoted
    /// at this temperature).
    pub const REFERENCE: Temperature = Temperature(60.0);

    /// From degrees Celsius.
    ///
    /// # Panics
    ///
    /// Panics outside the plausible silicon range `[-40, 125]`.
    pub fn from_celsius(c: f64) -> Self {
        assert!(
            (-40.0..=125.0).contains(&c),
            "temperature {c} C outside the supported range"
        );
        Temperature(c)
    }

    /// Leakage multiplier relative to the reference temperature.
    pub fn leakage_scale(&self) -> f64 {
        2f64.powf((self.0 - Self::REFERENCE.0) / LEAKAGE_DOUBLING_C)
    }
}

impl Default for Temperature {
    fn default() -> Self {
        Self::REFERENCE
    }
}

impl std::fmt::Display for Temperature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0} C", self.0)
    }
}

/// Per-bank operating parameters every memory technology exposes.
///
/// Implemented by [`SramBank`](crate::sram::SramBank) and
/// [`SttRamBank`](crate::sttram::SttRamBank); the accounting layer and the
/// simulator program against this trait so SRAM and STT-RAM designs are
/// interchangeable.
pub trait MemoryTechnology {
    /// Energy of one read access (one line).
    fn read_energy(&self) -> Energy;
    /// Energy of one write access (one line).
    fn write_energy(&self) -> Energy;
    /// Static leakage power of the whole bank when fully powered.
    fn leakage_power(&self) -> Power;
    /// Latency of a read access.
    fn read_latency(&self) -> Time;
    /// Latency of a write access.
    fn write_latency(&self) -> Time;
    /// Bank capacity in bytes.
    fn capacity_bytes(&self) -> u64;
    /// Short technology label for reports (e.g. `"SRAM"`).
    fn label(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_scaling() {
        assert_eq!(Temperature::default(), Temperature::REFERENCE);
        assert_eq!(Temperature::REFERENCE.leakage_scale(), 1.0);
        let hot = Temperature::from_celsius(85.0);
        assert!(
            (hot.leakage_scale() - 2.0).abs() < 1e-9,
            "{}",
            hot.leakage_scale()
        );
        let cold = Temperature::from_celsius(35.0);
        assert!((cold.leakage_scale() - 0.5).abs() < 1e-9);
        assert_eq!(hot.to_string(), "85 C");
    }

    #[test]
    #[should_panic(expected = "outside the supported range")]
    fn absurd_temperature_panics() {
        Temperature::from_celsius(300.0);
    }
}
