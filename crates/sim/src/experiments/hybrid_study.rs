//! A3 (extension) — hybrid SRAM/STT-RAM versus the homogeneous designs.
//!
//! The hybrid ([`HybridL2`]) keeps two SRAM ways for write-hot blocks and
//! fills the rest into non-volatile STT-RAM, steering fills with a
//! write-history table. This experiment positions it between the
//! all-SRAM baseline and an all-STT-RAM cache: the hybrid removes most
//! STT write energy but keeps the SRAM ways' leakage, which is exactly
//! why the paper's retention-relaxation approach (cheap STT writes
//! everywhere) wins overall (compare with T2).

use moca_core::{HybridL2, L2BaseParams, L2Design, RefreshPolicy};
use moca_energy::RetentionClass;
use moca_trace::AppProfile;

use crate::config::SystemConfig;
use crate::cpu::InOrderCore;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::memo::RunMemo;
use crate::parallel::{parallel_map, Jobs};
use crate::sweep::sweep;
use crate::table::{f3, pct, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// Apps compared (write-heavy ones are where the hybrid matters).
pub const APPS: [&str; 3] = ["camera", "video", "browser"];

/// Runs the hybrid through its own small runner (it is not an
/// [`L2Design`] variant; see [`HybridL2`] docs).
fn run_hybrid(app: &AppProfile, refs: usize) -> (f64, f64, f64, u64) {
    let cfg = SystemConfig::default();
    let mut core = InOrderCore::new(cfg.base_cycles_per_ref);
    let mut l2 = HybridL2::new(2, 14, RetentionClass::TenYears, &L2BaseParams::default())
        .expect("static config is valid");
    // The L1 outcome of every reference comes from the shared filtered
    // run; the hit gaps retire in O(1), and each miss reaches the L2 at
    // this runner's own clock.
    RunMemo::global()
        .replay(app, EXPERIMENT_SEED, &cfg, refs, None, |chunk| {
            for ev in chunk.events() {
                core.retire_many(u64::from(ev.gap));
                let now = core.cycle();
                let resp = l2.request(&ev.demand, now);
                let dram = if resp.dram_read {
                    cfg.dram_latency_cycles
                } else {
                    0
                };
                if let Some(wb) = &ev.writeback {
                    l2.request(wb, now);
                }
                core.retire(resp.latency_cycles + dram);
            }
            core.retire_many(chunk.tail_gap() as u64);
        })
        .expect("uncancellable run cannot be cancelled");
    l2.finalize(core.cycle());
    (
        l2.energy().total().joules(),
        core.cycle() as f64 / core.refs() as f64,
        l2.hybrid_stats().sram_write_share(),
        l2.hybrid_stats().migrations,
    )
}

/// Runs the experiment, sharding the per-app comparison runs over `jobs`
/// threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let all_stt = L2Design::SharedStt {
        ways: 16,
        retention: RetentionClass::TenYears,
        refresh: RefreshPolicy::InvalidateOnExpiry,
    };
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
    let runs = parallel_map(jobs, APPS.to_vec(), |name| {
        let app = AppProfile::by_name(name).expect("known app");
        // Baseline, all-STT and the hybrid's own runner all replay one
        // memoized filtered run of the stream.
        let designs = [L2Design::baseline(), all_stt];
        let mut pair = sweep(&designs, |d| *d, &app, refs, EXPERIMENT_SEED, Jobs::SERIAL);
        // Invariant: both designs are valid constants.
        let stt = pair.pop().expect("two designs").expect("valid design").report;
        let base = pair.pop().expect("two designs").expect("valid design").report;
        let hybrid = run_hybrid(&app, refs);
        (base, stt, hybrid)
    });
    for (name, (base, stt, (hybrid_j, hybrid_cpr, share, migrations))) in APPS.iter().zip(runs) {
        let base_j = base.l2_energy.total().joules();
        let hybrid_norm = hybrid_j / base_j;
        let stt_norm = stt.energy_ratio_vs(&base);
        norm_gaps.push(hybrid_norm - stt_norm);
        shares.push(share);
        table.row(vec![
            name.to_string(),
            "1.000".to_string(),
            f3(stt_norm),
            f3(hybrid_norm),
            f3(hybrid_cpr / base.cpr()),
            pct(share),
            migrations.to_string(),
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
