//! A5 (extension) — next-line prefetching on top of the paper's designs.
//!
//! Mobile workloads carry heavy streaming tails (file reads, frame
//! buffers), which a trivial next-line prefetcher converts from misses to
//! hits. The study asks whether prefetching changes the paper's picture:
//! it reduces stalls on every design, but *increases* L2 fill energy and
//! DRAM traffic — and on STT-RAM each prefetch fill is an expensive
//! write, so the energy story is design-dependent.

use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::config::SystemConfig;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::lockstep::{execute, Plan};
use crate::parallel::{parallel_map, Jobs};
use crate::table::{f3, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// Streaming-heavy apps where a next-line prefetcher matters most.
pub const APPS: [&str; 3] = ["video", "camera", "maps"];

/// Runs the experiment: one plan of both designs per app and prefetch
/// setting, sharded over `jobs` threads. Prefetching changes only the
/// L2, so an app's two plans replay one memoized filtered run.
pub fn run_experiment(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let designs = [L2Design::baseline(), L2Design::static_default()];
    let mut table = Table::new(vec![
        "app / design",
        "demand miss (no pf)",
        "demand miss (pf)",
        "speedup from pf",
        "energy cost of pf",
    ]);
    let mut speedups = Vec::new();
    let mut miss_drops = Vec::new();
    let cells: Vec<(&str, bool)> = APPS
        .iter()
        .flat_map(|&name| [(name, false), (name, true)])
        .collect();
    let runs = parallel_map(jobs, cells, |(name, prefetch)| {
        let app = AppProfile::by_name(name).expect("known app");
        let cfg = SystemConfig {
            l2_next_line_prefetch: prefetch,
        };
        let plan = Plan::new(&app, EXPERIMENT_SEED, refs, &designs).with_config(cfg);
        execute(&plan, Jobs::SERIAL)
            .into_iter()
            // Invariant: both designs are constant, valid designs.
            .map(|p| p.expect("A5 designs are valid").report)
            .collect::<Vec<_>>()
    });
    // `runs` alternates prefetch off/on per app, in `APPS` order.
    for (name, pair) in APPS.iter().zip(runs.chunks_exact(2)) {
        for (design, (off, on)) in designs.iter().zip(pair[0].iter().zip(&pair[1])) {
            let speedup = off.cpr() / on.cpr();
            let energy_ratio = on.l2_energy.normalized_to(&off.l2_energy);
            speedups.push(speedup);
            miss_drops.push(off.l2_demand_miss_rate() - on.l2_demand_miss_rate());
            table.row(vec![
                format!("{name} / {}", design.label()),
                f3(off.l2_demand_miss_rate()),
                f3(on.l2_demand_miss_rate()),
                f3(speedup),
                f3(energy_ratio),
            ]);
        }
    }
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let mean_drop = miss_drops.iter().sum::<f64>() / miss_drops.len() as f64;

    let claims = vec![
        ClaimCheck {
            claim: "A5",
            target: "next-line prefetching lowers the demand miss rate on streaming apps (mean drop > 0.02)".into(),
            measured: format!("{mean_drop:+.3}"),
            pass: mean_drop > 0.02,
        },
        ClaimCheck {
            claim: "A5",
            target: "prefetching speeds execution up (mean speedup > 1.0)".into(),
            measured: f3(mean_speedup),
            pass: mean_speedup > 1.0,
        },
    ];
    ExperimentResult {
        id: "A5",
        title: "Next-line prefetching on the paper's designs (extension)",
        table: table.render(),
        summary: format!(
            "A trivial next-line prefetcher cuts the miss rate of streaming apps by \
             {:.1} points and speeds execution up {:.1}% on average, at the cost of \
             extra fill energy (the last column; on STT-RAM each prefetch is an \
             expensive write). The paper's conclusions are orthogonal: prefetching \
             helps baseline and proposed designs alike.",
            mean_drop * 100.0,
            (mean_speedup - 1.0) * 100.0
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_helps_streaming_apps() {
        let r = run_experiment(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("video"));
    }
}
