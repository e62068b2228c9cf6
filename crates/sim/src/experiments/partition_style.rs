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

use crate::config::SystemConfig;
use crate::cpu::InOrderCore;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::memo::RunMemo;
use crate::parallel::{parallel_map, Jobs};
use crate::sweep::sweep;
use crate::table::{f3, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// Apps compared.
pub const APPS: [&str; 4] = ["browser", "video", "music", "office"];

/// Runs a set-partitioned configuration through the L1s and core model
/// (the standard [`System`](crate::system::System) drives `MobileL2`, so
/// this experiment has its own small runner).
fn run_set_partitioned(app: &AppProfile, refs: usize) -> (f64, f64, u64) {
    let cfg = SystemConfig::default();
    let mut core = InOrderCore::new(cfg.base_cycles_per_ref);
    let mut l2 = SetPartitionedL2::new(1024, 512, 16, &L2BaseParams::default())
        .expect("static geometry is valid");
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
        let mut pair = sweep(&designs, |d| *d, &app, refs, EXPERIMENT_SEED, Jobs::SERIAL);
        // Invariant: both designs are valid constants.
        let way = pair.pop().expect("two designs").expect("valid design").report;
        let base = pair.pop().expect("two designs").expect("valid design").report;
        let set = run_set_partitioned(&app, refs);
        (base, way, set)
    });
    for (name, (base, way, (set_miss, set_cpr, _))) in APPS.iter().zip(runs) {
        way_miss_sum += way.l2_miss_rate();
        set_miss_sum += set_miss;
        table.row(vec![
            name.to_string(),
            f3(way.l2_miss_rate()),
            f3(set_miss),
            f3(way.slowdown_vs(&base)),
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
