//! F8 — sensitivity and ablation studies.
//!
//! Three ablations around the dynamic design's defaults, run on one
//! representative app (browser):
//!
//! 1. **Epoch length** — short epochs react faster but thrash; long
//!    epochs under-adapt.
//! 2. **Refresh policy** — invalidate-on-expiry versus in-place refresh
//!    for the volatile segments.
//! 3. **Kernel retention class** — the energy/performance trade of the
//!    short-retention choice.

use moca_core::{L2Design, RefreshPolicy};
use moca_energy::RetentionClass;
use moca_trace::AppProfile;

use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::parallel::Jobs;
use crate::sweep::sweep;
use crate::table::{f3, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// The app used for the ablations.
pub const ABLATION_APP: &str = "browser";

fn dynamic_with(epoch: u64, refresh: RefreshPolicy, kernel_retention: RetentionClass) -> L2Design {
    L2Design::DynamicStt {
        max_ways: 16,
        min_ways: 1,
        user_retention: RetentionClass::HundredMillis,
        kernel_retention,
        refresh,
        epoch_cycles: epoch,
    }
}

/// Runs the experiment, sharding the ablation variants over `jobs`
/// threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let app = AppProfile::by_name(ABLATION_APP).expect("known app");
    let refs = scale.sweep_refs() * 2;

    // Enumerate every variant up front (table order), then shard the
    // simulations; the baseline rides along as the first work item.
    let mut variants: Vec<(String, L2Design)> = Vec::new();
    // 1. Epoch length.
    for epoch in [100_000u64, 500_000, 2_000_000, 8_000_000] {
        variants.push((
            format!("epoch {}k cycles", epoch / 1000),
            dynamic_with(epoch, RefreshPolicy::InvalidateOnExpiry, RetentionClass::TenMillis),
        ));
    }
    // 2. Refresh policy.
    variants.push((
        "policy invalidate-on-expiry".into(),
        dynamic_with(500_000, RefreshPolicy::InvalidateOnExpiry, RetentionClass::TenMillis),
    ));
    variants.push((
        "policy refresh".into(),
        dynamic_with(500_000, RefreshPolicy::Refresh, RetentionClass::TenMillis),
    ));
    // 3. Technology x policy 2x2: separates the benefit of dynamic
    // sizing from the benefit of the STT-RAM technology swap.
    variants.push((
        "2x2: SRAM dynamic".into(),
        L2Design::DynamicSram {
            max_ways: 16,
            min_ways: 1,
            epoch_cycles: 500_000,
        },
    ));
    variants.push((
        "2x2: SRAM static 6u4k".into(),
        L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 4,
        },
    ));
    variants.push(("2x2: STT static (default)".into(), L2Design::static_default()));
    variants.push(("2x2: STT dynamic (default)".into(), L2Design::dynamic_default()));
    // 4. Kernel retention.
    for rc in [
        RetentionClass::OneSecond,
        RetentionClass::HundredMillis,
        RetentionClass::TenMillis,
    ] {
        variants.push((
            format!("kernel retention {}", rc.label()),
            dynamic_with(500_000, RefreshPolicy::InvalidateOnExpiry, rc),
        ));
    }

    let mut work: Vec<L2Design> = vec![L2Design::baseline()];
    work.extend(variants.iter().map(|(_, d)| *d));
    // One shared trace stream feeds the baseline plus all 13 variants;
    // reports stay byte-identical to per-design `run_app`.
    let mut reports: Vec<_> = sweep(&work, |d| *d, &app, refs, EXPERIMENT_SEED, jobs)
        .into_iter()
        // Invariant: the baseline and every variant are valid constants.
        .map(|p| p.expect("sensitivity variants are valid").report)
        .collect();
    let baseline = reports.remove(0);

    let mut table = Table::new(vec![
        "variant",
        "norm energy",
        "slowdown",
        "mean ways",
        "expired/1k L2 acc",
    ]);
    let mut results: Vec<(f64, f64)> = Vec::new();
    for ((label, _), r) in variants.iter().zip(&reports) {
        let ne = r.energy_ratio_vs(&baseline);
        let slow = r.slowdown_vs(&baseline);
        table.row(vec![
            label.clone(),
            f3(ne),
            f3(slow),
            format!("{:.1}", r.mean_active_ways),
            format!(
                "{:.2}",
                r.expiry.expired as f64 * 1000.0 / r.l2_stats.accesses().max(1) as f64
            ),
        ]);
        results.push((ne, slow));
    }
    let epoch_results = &results[0..4];
    let (sram_dyn_e, _) = results[6];
    let (sram_static_e, _) = results[7];
    let (stt_static_e, _) = results[8];
    let (stt_dyn_e, _) = results[9];
    let retention_results = &results[10..13];

    // Claims: every variant keeps the headline shape (large savings at
    // modest slowdown) — the techniques are not knife-edge tuned — and
    // the 2x2 shows both levers matter: the technology swap dominates,
    // and dynamic sizing helps within each technology.
    let worst_energy = epoch_results
        .iter()
        .chain(retention_results)
        .map(|&(e, _)| e)
        .fold(0.0f64, f64::max);
    let worst_slow = epoch_results
        .iter()
        .chain(retention_results)
        .map(|&(_, s)| s)
        .fold(0.0f64, f64::max);
    let claims = vec![
        ClaimCheck {
            claim: "C8 (robustness)",
            target: "all dynamic-STT ablation variants keep >= 60% energy saving".into(),
            measured: format!("worst norm energy {worst_energy:.3}"),
            pass: worst_energy <= 0.40,
        },
        ClaimCheck {
            claim: "C5/C6 (2x2)",
            target: "technology swap saves more than dynamic sizing alone".into(),
            measured: format!(
                "SRAM: static {sram_static_e:.3} / dynamic {sram_dyn_e:.3}; STT: static {stt_static_e:.3} / dynamic {stt_dyn_e:.3}"
            ),
            pass: stt_static_e < sram_dyn_e && stt_dyn_e < sram_static_e,
        },
        ClaimCheck {
            claim: "C8 (robustness)",
            target: "all ablation variants stay within 10% slowdown".into(),
            measured: format!("worst slowdown {worst_slow:.3}"),
            pass: worst_slow <= 1.10,
        },
    ];
    ExperimentResult {
        id: "F8",
        title: "Sensitivity: epoch length, refresh policy, kernel retention (browser)",
        table: table.render(),
        summary: "The dynamic design's savings are robust across an 80x epoch-length \
                  range, both expiry policies, and a 100x kernel-retention range; the \
                  defaults (500k-cycle epochs, invalidate-on-expiry, 10 ms kernel \
                  retention) sit at the flat part of every knob."
            .into(),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_are_robust() {
        let r = run(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("epoch"));
        assert!(r.table.contains("refresh"));
    }
}
