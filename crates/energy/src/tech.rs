//! Technology nodes and the common memory-bank interface.

use crate::units::{Energy, Power, Time};

/// CMOS process node of the memory periphery.
///
/// Scale factors are normalized to the 45 nm anchor used by the paper's
/// era of mobile SoCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TechNode {
    /// 65 nm.
    Nm65,
    /// 45 nm (the calibration anchor).
    #[default]
    Nm45,
    /// 32 nm.
    Nm32,
}

impl TechNode {
    /// Dynamic-energy multiplier relative to 45 nm
    /// (capacitance shrinks with feature size).
    pub fn dynamic_scale(self) -> f64 {
        match self {
            TechNode::Nm65 => 1.6,
            TechNode::Nm45 => 1.0,
            TechNode::Nm32 => 0.65,
        }
    }

    /// Leakage-power multiplier relative to 45 nm (leakage worsens per
    /// transistor at smaller nodes but fewer/smaller transistors; net
    /// factors follow ITRS-era reporting).
    pub fn leakage_scale(self) -> f64 {
        match self {
            TechNode::Nm65 => 0.8,
            TechNode::Nm45 => 1.0,
            TechNode::Nm32 => 1.3,
        }
    }

    /// Latency multiplier relative to 45 nm.
    pub fn latency_scale(self) -> f64 {
        match self {
            TechNode::Nm65 => 1.25,
            TechNode::Nm45 => 1.0,
            TechNode::Nm32 => 0.85,
        }
    }
}

impl std::fmt::Display for TechNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TechNode::Nm65 => f.write_str("65nm"),
            TechNode::Nm45 => f.write_str("45nm"),
            TechNode::Nm32 => f.write_str("32nm"),
        }
    }
}

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

    /// In degrees Celsius.
    pub fn celsius(&self) -> f64 {
        self.0
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
    fn scales_are_anchored_at_45nm() {
        assert_eq!(TechNode::Nm45.dynamic_scale(), 1.0);
        assert_eq!(TechNode::Nm45.leakage_scale(), 1.0);
        assert_eq!(TechNode::Nm45.latency_scale(), 1.0);
        assert_eq!(TechNode::default(), TechNode::Nm45);
    }

    #[test]
    fn smaller_nodes_cost_less_dynamic_energy() {
        assert!(TechNode::Nm32.dynamic_scale() < TechNode::Nm45.dynamic_scale());
        assert!(TechNode::Nm45.dynamic_scale() < TechNode::Nm65.dynamic_scale());
    }

    #[test]
    fn temperature_scaling() {
        assert_eq!(Temperature::default(), Temperature::REFERENCE);
        assert!((Temperature::REFERENCE.leakage_scale() - 1.0).abs() < 1e-12);
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

    #[test]
    fn display_names() {
        assert_eq!(TechNode::Nm32.to_string(), "32nm");
        assert_eq!(TechNode::Nm45.to_string(), "45nm");
        assert_eq!(TechNode::Nm65.to_string(), "65nm");
    }
}
