//! # moca-energy — SRAM and multi-retention STT-RAM technology models
//!
//! Analytic energy/latency models for the cache banks evaluated by the
//! paper: a CACTI-style [`SramBank`] and an MTJ-physics [`SttRamBank`]
//! whose write cost depends on the [`RetentionClass`] (the
//! multi-retention knob). [`EnergyAccountant`] integrates read/write/
//! leakage/refresh energy over a simulated run.
//!
//! Absolute numbers are literature-anchored approximations; the *relative*
//! properties the paper's conclusions rest on are enforced by tests:
//!
//! * SRAM leakage is linear in capacity (shrinking saves energy);
//! * STT-RAM leaks ~8 % of equal SRAM but writes cost ~5× (at 10-year
//!   retention);
//! * lowering retention makes STT-RAM writes dramatically cheaper/faster.
//!
//! ```
//! use moca_energy::{MemoryTechnology, RetentionClass, SttRamBank, SramBank};
//!
//! let sram = SramBank::new(2 << 20, 16);
//! let stt = SttRamBank::new(2 << 20, 16, RetentionClass::TenMillis);
//! assert!(stt.leakage_power().mw() < 0.1 * sram.leakage_power().mw());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accounting;
pub mod area;
pub mod projection;
pub mod retention;
pub mod sram;
pub mod sttram;
pub mod tech;
pub mod units;

pub use accounting::{EnergyAccountant, EnergyBreakdown, Technology};
pub use area::{array_area_mm2, bank_area_mm2, try_array_area_mm2, try_capacity_bytes};
pub use projection::{project_energy, AccessCounts, ArithmeticOverflow};
pub use retention::RetentionClass;
pub use sram::SramBank;
pub use sttram::SttRamBank;
pub use tech::{MemoryTechnology, Temperature};
pub use units::{Energy, Power, Time};
