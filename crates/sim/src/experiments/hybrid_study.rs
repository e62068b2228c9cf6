//! A3 (extension) — hybrid SRAM/STT-RAM versus the homogeneous designs.
//!
//! The hybrid ([`L2Design::HybridStt`]) keeps two SRAM ways for write-hot
//! blocks and fills the rest into non-volatile STT-RAM, steering fills
//! with a write-history table. This experiment positions it between the
//! all-SRAM baseline and an all-STT-RAM cache: the hybrid removes most
//! STT write energy but keeps the SRAM ways' leakage, which is exactly
//! why the paper's retention-relaxation approach (cheap STT writes
//! everywhere) wins overall (compare with T2).

use moca_core::{L2Design, RefreshPolicy};
use moca_energy::RetentionClass;

use crate::experiments::{app_reports, ClaimCheck, ExperimentResult};
use crate::parallel::Jobs;
use crate::table::{f3, pct, Table};
use crate::workloads::Scale;

/// Apps compared (write-heavy ones are where the hybrid matters).
pub const APPS: [&str; 3] = ["camera", "video", "browser"];

/// Runs the experiment, sharding the per-app plans over `jobs` threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let designs = [
        L2Design::baseline(),
        L2Design::SharedStt {
            ways: 16,
            retention: RetentionClass::TenYears,
            refresh: RefreshPolicy::InvalidateOnExpiry,
        },
        L2Design::HybridStt {
            sram_ways: 2,
            stt_ways: 14,
            retention: RetentionClass::TenYears,
        },
    ];
    let mut table = Table::new(vec![
        "app",
        "all-SRAM normE",
        "all-STT(10yr) normE",
        "hybrid 2s+14t normE",
        "hybrid slowdown",
        "SRAM write share",
        "migrations",
    ]);
    let mut norm_gaps = Vec::new();
    let mut shares = Vec::new();
    let runs = app_reports(&APPS, &designs, refs, jobs);
    for (name, reports) in APPS.iter().zip(runs) {
        let (base, stt, hybrid) = (&reports[0], &reports[1], &reports[2]);
        let hybrid_norm = hybrid.l2_energy.total().joules() / base.l2_energy.total().joules();
        let stt_norm = stt.energy_ratio_vs(base);
        let share = hybrid.hybrid.sram_write_share();
        norm_gaps.push(hybrid_norm - stt_norm);
        shares.push(share);
        table.row(vec![
            name.to_string(),
            "1.000".to_string(),
            f3(stt_norm),
            f3(hybrid_norm),
            f3(hybrid.slowdown_vs(base)),
            pct(share),
            hybrid.hybrid.migrations.to_string(),
        ]);
    }
    let mean_share = shares.iter().sum::<f64>() / shares.len() as f64;
    let worst_gap = norm_gaps.iter().fold(f64::MIN, |a, &b| a.max(b));

    // The honest finding: steering concentrates write traffic into the
    // tiny SRAM partition far beyond its capacity share, yet total energy
    // barely moves — cold fill-writes (write-allocate misses) dominate
    // STT write energy and no placement policy can dodge them. That is
    // precisely why the paper attacks the *per-write cost* via retention
    // relaxation instead of write placement.
    let claims = vec![
        ClaimCheck {
            claim: "A3",
            target: "steering works: the SRAM ways (12.5% of capacity) absorb a disproportionate write share (> 25%)".into(),
            measured: pct(mean_share),
            pass: mean_share > 0.25,
        },
        ClaimCheck {
            claim: "A3",
            target: "yet the hybrid stays within 0.05 normalized energy of all-STT (fill-writes dominate)".into(),
            measured: format!("worst gap {worst_gap:+.3}"),
            pass: worst_gap < 0.05,
        },
    ];
    ExperimentResult {
        id: "A3",
        title: "Hybrid SRAM/STT-RAM L2 vs homogeneous designs (extension)",
        table: table.render(),
        summary: format!(
            "Write-history steering concentrates {} of L2 writes into two SRAM ways \
             (12.5% of capacity), but total energy is nearly identical to all-STT: \
             the dominant STT writes are cold fills that no placement policy can \
             avoid. Write placement is therefore a weak lever here — the paper's \
             retention relaxation, which cheapens *every* write, is the strong one \
             (compare T2's ~84% saving with all-STT(10yr)'s ~62%).",
            pct(mean_share)
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_study_claims_hold() {
        let r = run(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("camera"));
    }
}
