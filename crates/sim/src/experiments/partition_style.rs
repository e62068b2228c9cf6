//! A2 (extension) — way partitioning versus set partitioning.
//!
//! The paper partitions by *ways*; the natural alternative is
//! partitioning by *sets* (two independent arrays with full
//! associativity). This ablation compares the two at equal total capacity
//! (1.5 MiB: 8u+4k ways vs 1 MiB + 512 KiB arrays) and shows why the
//! way-based choice is the right substrate for the dynamic technique —
//! it performs comparably while being resizable at way granularity.

use moca_core::{L2BaseParams, L2Design, SetPartitionedL2};
use moca_trace::AppProfile;

use crate::experiments::{replay_flat, ClaimCheck, ExperimentResult};
use crate::lockstep::{execute, Plan};
use crate::metrics::SimReport;
use crate::parallel::{parallel_map, Jobs};
use crate::table::{f3, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// Apps compared.
pub const APPS: [&str; 4] = ["browser", "video", "music", "office"];

/// Runs a set-partitioned configuration through the L1s and core model
/// (the standard [`System`](crate::system::System) drives `MobileL2`, so
/// this experiment has its own small runner).
fn run_set_partitioned(app: &AppProfile, refs: usize) -> (f64, f64, u64) {
    let mut l2 = SetPartitionedL2::new(1024, 512, 16, &L2BaseParams::default())
        .expect("static geometry is valid");
    let core = replay_flat(app, refs, |req, now| l2.request(req, now));
    l2.finalize(core.cycle());
    let miss = l2.stats().miss_rate();
    let cpr = core.cycle() as f64 / core.refs() as f64;
    (miss, cpr, core.cycle())
}

/// Runs the experiment, sharding the per-app comparison runs over `jobs`
/// threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let mut table = Table::new(vec![
        "app",
        "way-part miss (8u+4k)",
        "set-part miss (1M/512K)",
        "way-part slowdown",
        "set-part slowdown",
    ]);
    let way_design = L2Design::StaticSram {
        user_ways: 8,
        kernel_ways: 4,
    };
    let mut way_miss_sum = 0.0;
    let mut set_miss_sum = 0.0;
    let runs = parallel_map(jobs, APPS.to_vec(), |name| {
        let app = AppProfile::by_name(name).expect("known app");
        // Baseline, way-partitioned and the set-partitioned runner all
        // replay one memoized filtered run of the stream.
        let designs = [L2Design::baseline(), way_design];
        // Invariant: both designs are valid constants.
        let reports: Vec<SimReport> = execute(
            &Plan::new(&app, EXPERIMENT_SEED, refs, &designs),
            Jobs::SERIAL,
        )
        .into_iter()
        .map(|p| p.expect("valid design").report)
        .collect();
        let set = run_set_partitioned(&app, refs);
        (reports, set)
    });
    for (name, (reports, (set_miss, set_cpr, _))) in APPS.iter().zip(runs) {
        let (base, way) = (&reports[0], &reports[1]);
        way_miss_sum += way.l2_miss_rate();
        set_miss_sum += set_miss;
        table.row(vec![
            name.to_string(),
            f3(way.l2_miss_rate()),
            f3(set_miss),
            f3(way.slowdown_vs(base)),
            f3(set_cpr / base.cpr()),
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
