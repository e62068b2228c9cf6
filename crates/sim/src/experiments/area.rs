//! A1 (extension) — silicon area of the compared designs.
//!
//! Not a figure of the original evaluation, but a direct corollary the
//! paper invokes: MTJ cells are ~3× denser than 6T SRAM, so the proposed
//! designs shrink the L2 macro as well as its energy. Area is computed
//! from the *physical* arrays — a dynamic design must lay out all
//! `max_ways` even though it power-gates most of them.

use moca_core::L2Design;
use moca_energy::{bank_area_mm2, RetentionClass, Technology};

use crate::experiments::matrix::headline_designs;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::parallel::Jobs;
use crate::table::Table;
use crate::workloads::Scale;

/// Bytes per way of the default L2 substrate (2048 sets × 64 B).
const WAY_BYTES: u64 = 2048 * 64;

fn physical_bank(design: &L2Design) -> Technology {
    let ways = design.physical_ways();
    let capacity = WAY_BYTES * u64::from(ways);
    match design {
        L2Design::SharedSram { .. }
        | L2Design::StaticSram { .. }
        | L2Design::DynamicSram { .. } => Technology::sram(capacity, ways),
        // Two arrays of their own set counts (64 B lines, as WAY_BYTES).
        L2Design::SetPartitionedSram {
            user_sets,
            kernel_sets,
            ..
        } => Technology::sram((user_sets + kernel_sets) * u64::from(ways) * 64, ways),
        L2Design::SharedStt { retention, .. } | L2Design::HybridStt { retention, .. } => {
            Technology::sttram(capacity, ways, *retention)
        }
        L2Design::StaticMultiRetention { user_retention, .. } => {
            Technology::sttram(capacity, ways, *user_retention)
        }
        L2Design::DynamicStt { user_retention, .. } => {
            Technology::sttram(capacity, ways, *user_retention)
        }
    }
}

/// Runs the experiment (pure computation; `scale` and `jobs` are unused
/// but kept for interface uniformity).
pub fn run(_scale: Scale, _jobs: Jobs) -> ExperimentResult {
    let mut table = Table::new(vec![
        "design",
        "physical array",
        "cell type",
        "area (mm^2)",
        "vs baseline",
    ]);
    let designs = headline_designs();
    let baseline_area = bank_area_mm2(&physical_bank(&designs[0]));
    let mut areas = Vec::new();
    for d in &designs {
        let bank = physical_bank(d);
        let area = bank_area_mm2(&bank);
        areas.push(area);
        table.row(vec![
            d.label(),
            format!(
                "{} KiB ({} ways)",
                WAY_BYTES * u64::from(d.physical_ways()) / 1024,
                d.physical_ways()
            ),
            match bank {
                Technology::Sram(_) => "SRAM 6T".to_string(),
                Technology::SttRam(_) => "STT-RAM 1T1MTJ".to_string(),
            },
            format!("{area:.2}"),
            format!("{:.2}x", area / baseline_area),
        ]);
    }

    // Reference point: an STT-RAM array of the full baseline capacity.
    let full_stt = Technology::sttram(16 * WAY_BYTES, 16, RetentionClass::TenMillis);
    table.row(vec![
        "(2 MiB STT-RAM reference)".into(),
        "2048 KiB (16 ways)".into(),
        "STT-RAM 1T1MTJ".into(),
        format!("{:.2}", bank_area_mm2(&full_stt)),
        format!("{:.2}x", bank_area_mm2(&full_stt) / baseline_area),
    ]);

    let static_rel = areas[2] / baseline_area;
    let dynamic_rel = areas[3] / baseline_area;
    let claims = vec![
        ClaimCheck {
            claim: "A1",
            target: "static MR-STT design uses < 0.30x the baseline macro area".into(),
            measured: format!("{static_rel:.2}x"),
            pass: static_rel < 0.30,
        },
        ClaimCheck {
            claim: "A1",
            target: "dynamic design (full 16-way STT array) uses < 0.40x baseline area".into(),
            measured: format!("{dynamic_rel:.2}x"),
            pass: dynamic_rel < 0.40,
        },
    ];
    ExperimentResult {
        id: "A1",
        title: "Silicon area of the physical L2 arrays (extension)",
        table: table.render(),
        summary: format!(
            "Beyond energy, the STT-RAM designs shrink the L2 macro: the shrunk static \
             partition occupies {:.2}x and even the dynamic design's full 16-way array \
             only {:.2}x of the baseline SRAM area (MTJ cells are ~3x denser).",
            static_rel, dynamic_rel
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_claims_hold() {
        let r = run(Scale::Quick, Jobs::SERIAL);
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("STT-RAM"));
        assert!(r.table.contains("SRAM 6T"));
    }

    #[test]
    fn baseline_row_is_unity() {
        let r = run(Scale::Quick, Jobs::SERIAL);
        assert!(r.table.contains("1.00x"));
    }
}
