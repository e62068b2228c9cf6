//! A6 (extension) — energy savings versus die temperature.
//!
//! Phones are passively cooled and routinely run hot. Sub-threshold SRAM
//! leakage roughly doubles every 25 °C, while STT-RAM's MTJ cells do not
//! leak at all — so the paper's designs save *more* on a hot die. This
//! study sweeps the die temperature and reports the static design's
//! saving at each point.
//!
//! In this model die temperature changes one thing: leakage power, by
//! [`Temperature::leakage_scale`] relative to the 60 °C reference every
//! bank anchor is quoted at. Latencies, retention times and so every
//! hit, miss, expiry and cycle stay put, and leakage energy is leakage
//! power × powered time. So the study simulates each design once, at
//! the reference, and derives every row from those two reports: read,
//! write and refresh energy as measured, plus the measured leakage
//! scaled to the row's temperature. Up to floating-point rounding this
//! is what a simulation at that temperature would report, and the 60 °C
//! row is the measured reports themselves. In reality an MTJ's
//! retention time also drops at high temperature; that second-order
//! effect is not modelled.

use moca_core::L2Design;
use moca_energy::{EnergyBreakdown, Temperature};
use moca_trace::AppProfile;

use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::lockstep::{execute, Plan};
use crate::parallel::Jobs;
use crate::table::{pct, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// App used for the temperature sweep.
pub const APP: &str = "office";

/// Die temperatures swept (°C).
pub const SWEEP_C: [f64; 4] = [35.0, 60.0, 85.0, 110.0];

/// `energy`, measured at the reference temperature, with its leakage
/// re-scaled to `celsius`.
fn at_celsius(energy: &EnergyBreakdown, celsius: f64) -> EnergyBreakdown {
    let scale = Temperature::from_celsius(celsius).leakage_scale();
    EnergyBreakdown {
        leakage: energy.leakage.scaled(scale),
        ..*energy
    }
}

/// `(baseline leak share, static saving)` at each temperature of
/// [`SWEEP_C`], from the two designs' reference-temperature L2 energy.
fn rows(baseline: &EnergyBreakdown, stat: &EnergyBreakdown) -> [(f64, f64); SWEEP_C.len()] {
    SWEEP_C.map(|c| {
        let (base, stat) = (at_celsius(baseline, c), at_celsius(stat, c));
        (
            base.leakage_fraction(),
            1.0 - stat.total().joules() / base.total().joules(),
        )
    })
}

/// Runs the experiment: one plan over the baseline and static designs,
/// with `jobs` lanes.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let app = AppProfile::by_name(APP).expect("known app");
    let designs = [L2Design::baseline(), L2Design::static_default()];
    let energy: Vec<EnergyBreakdown> = execute(
        &Plan::new(&app, EXPERIMENT_SEED, scale.sweep_refs(), &designs),
        jobs,
    )
    .into_iter()
    // Invariant: both designs are valid constants.
    .map(|p| p.expect("A6 designs are valid").report.l2_energy)
    .collect();
    let rows = rows(&energy[0], &energy[1]);

    let mut table = Table::new(vec![
        "die temperature",
        "baseline leak share",
        "static MR saving",
    ]);
    for (c, (base_leak, saving)) in SWEEP_C.iter().zip(rows) {
        table.row(vec![format!("{c:.0} C"), pct(base_leak), pct(saving)]);
    }

    let monotone = rows.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9);
    let cold = rows[0].1;
    let hot = rows[SWEEP_C.len() - 1].1;
    let claims = vec![ClaimCheck {
        claim: "A6",
        target: "the static design's saving grows monotonically with die temperature".into(),
        measured: format!("{} at 35 C -> {} at 110 C", pct(cold), pct(hot)),
        pass: monotone && hot > cold,
    }];
    ExperimentResult {
        id: "A6",
        title: "Energy savings vs die temperature (extension)",
        table: table.render(),
        summary: format!(
            "SRAM leakage doubles every ~25 C while MTJ cells never leak, so the \
             static multi-retention design's saving climbs from {} on a cool die to \
             {} on a hot one — thermal headroom is another axis on which the paper's \
             designs win.",
            pct(cold),
            pct(hot)
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_grow_with_temperature() {
        let r = run(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("110 C"));
    }

    #[test]
    fn reference_row_is_the_measured_reports() {
        let app = AppProfile::by_name(APP).expect("known app");
        let designs = [L2Design::baseline(), L2Design::static_default()];
        let points = execute(
            &Plan::new(&app, EXPERIMENT_SEED, 20_000, &designs),
            Jobs::SERIAL,
        );
        let base = points[0].as_ref().expect("valid design").report.l2_energy;
        let stat = points[1].as_ref().expect("valid design").report.l2_energy;
        let reference = SWEEP_C
            .iter()
            .position(|&c| c == 60.0)
            .expect("the sweep covers the reference");
        assert_eq!(
            rows(&base, &stat)[reference],
            (
                base.leakage_fraction(),
                1.0 - stat.total().joules() / base.total().joules()
            )
        );
    }
}
