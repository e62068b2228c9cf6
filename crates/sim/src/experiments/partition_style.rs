//! A2 (extension) — way partitioning versus set partitioning.
//!
//! The paper partitions by *ways*; the natural alternative is
//! partitioning by *sets* (two independent arrays with full
//! associativity). This ablation compares the two at equal total capacity
//! (1.5 MiB: 8u+4k ways vs 1 MiB + 512 KiB arrays) and shows why the
//! way-based choice is the right substrate for the dynamic technique —
//! it performs comparably while being resizable at way granularity.

use moca_core::L2Design;

use crate::experiments::{app_reports, ClaimCheck, ExperimentResult};
use crate::parallel::Jobs;
use crate::table::{f3, Table};
use crate::workloads::Scale;

/// Apps compared.
pub const APPS: [&str; 4] = ["browser", "video", "music", "office"];

/// Runs the experiment, sharding the per-app plans over `jobs` threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let mut table = Table::new(vec![
        "app",
        "way-part miss (8u+4k)",
        "set-part miss (1M/512K)",
        "way-part slowdown",
        "set-part slowdown",
    ]);
    // Baseline, way-partitioned 8u+4k and set-partitioned 1 MiB + 512 KiB
    // (1024 / 512 sets of 16 ways).
    let designs = [
        L2Design::baseline(),
        L2Design::StaticSram {
            user_ways: 8,
            kernel_ways: 4,
        },
        L2Design::SetPartitionedSram {
            user_sets: 1024,
            kernel_sets: 512,
            ways: 16,
        },
    ];
    let mut way_miss_sum = 0.0;
    let mut set_miss_sum = 0.0;
    let runs = app_reports(&APPS, &designs, refs, jobs);
    for (name, reports) in APPS.iter().zip(runs) {
        let (base, way, set) = (&reports[0], &reports[1], &reports[2]);
        way_miss_sum += way.l2_miss_rate();
        set_miss_sum += set.l2_miss_rate();
        table.row(vec![
            name.to_string(),
            f3(way.l2_miss_rate()),
            f3(set.l2_miss_rate()),
            f3(way.slowdown_vs(base)),
            f3(set.slowdown_vs(base)),
        ]);
    }
    let n = APPS.len() as f64;
    let (way_mean, set_mean) = (way_miss_sum / n, set_miss_sum / n);

    let claims = vec![ClaimCheck {
        claim: "A2",
        target: "way partitioning performs within 0.02 absolute miss rate of set partitioning at equal capacity".into(),
        measured: format!("way {way_mean:.3} vs set {set_mean:.3}"),
        pass: (way_mean - set_mean).abs() < 0.02,
    }];
    ExperimentResult {
        id: "A2",
        title: "Way vs set partitioning at equal capacity (extension)",
        table: table.render(),
        summary: format!(
            "At 1.5 MiB total, way partitioning (mean miss {way_mean:.3}) and set \
             partitioning (mean miss {set_mean:.3}) are nearly equivalent — so choosing \
             ways costs nothing, and only ways can be re-assigned at runtime, which the \
             dynamic technique requires."
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_styles_are_comparable() {
        let r = run(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("browser"));
    }
}
