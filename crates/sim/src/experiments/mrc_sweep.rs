//! M1 — single-pass MRC grid scoring and sweep pruning.
//!
//! Demonstrates the miss-rate-curve engine end to end: one exact
//! Mattson pass ([`profile_lru_grid`]) scores a 24-point shared-SRAM
//! LRU grid analytically, the (projected energy, projected cycles)
//! Pareto frontier selects the survivors, and only those run full
//! lock-step simulation ([`sweep_pruned`]). The experiment
//! checks the engine's two contracts:
//!
//! * **Exactness** — the profiler's per-way-count hit/miss counts equal
//!   the simulated `l2_stats` of every point that runs, field by field.
//! * **Frontier safety** — the point a full (unpruned) sweep would pick
//!   by measured energy-delay product is among the analytic survivors,
//!   so pruning never discards the winner.
//!
//! With `repro --mrc` the experiment prunes (simulating survivors
//! only); without it, every grid point simulates and the frontier-safety
//! check runs against the complete measurement. Both modes render the
//! identical analytic score table.

use std::sync::Mutex;

use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::lockstep::{execute, Plan, Point};
use crate::parallel::Jobs;
use crate::sweep::{profile_lru_grid, score_lru_grid, sweep_pruned};
use crate::table::{f3, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// Way counts of the scored LRU grid (`1..=GRID_WAYS`).
pub const GRID_WAYS: u32 = 24;

/// Workload the grid is profiled and simulated on.
pub const APP: &str = "game";

/// Grid/pruned/simulated split of the most recent **pruned** M1 run in
/// this process, for the `repro` footer.
static LAST_PRUNE: Mutex<Option<(usize, usize, usize)>> = Mutex::new(None);

/// `(grid, pruned, simulated)` counts of the last pruned run, or `None`
/// if no pruned M1 run happened in this process.
pub fn last_prune_counts() -> Option<(usize, usize, usize)> {
    *LAST_PRUNE.lock().expect("prune-count lock")
}

/// Runs the experiment without pruning: every grid point simulates, and
/// the analytic frontier is validated against the full measurement.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    run_with(scale, jobs, false)
}

/// Measured total energy (L2 + DRAM) of a simulated point, in nJ.
fn measured_energy_nj(p: &Point) -> f64 {
    p.report.l2_energy.total().nj() + p.report.dram_energy.nj()
}

/// Runs the experiment; `pruned` selects whether dominated grid points
/// are skipped (the `repro --mrc` mode) or simulated anyway.
pub fn run_with(scale: Scale, jobs: Jobs, pruned: bool) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let app = AppProfile::by_name(APP).expect("known app");
    let designs: Vec<L2Design> = (1..=GRID_WAYS)
        .map(|ways| L2Design::SharedSram { ways })
        .collect();

    let (scores, slots) = if pruned {
        let p = sweep_pruned(&designs, &app, refs, EXPERIMENT_SEED, jobs);
        *LAST_PRUNE.lock().expect("prune-count lock") =
            Some((p.grid_points, p.pruned_points, p.simulated_points()));
        (p.scores, p.points)
    } else {
        let curve = profile_lru_grid(&app, refs, EXPERIMENT_SEED, GRID_WAYS);
        let scores = score_lru_grid(&curve, refs);
        let plan = Plan::new(&app, EXPERIMENT_SEED, refs, &designs);
        let points = execute(&plan, jobs).into_iter().map(Some).collect();
        (scores, points)
    };
    // Slot `i` holds the grid point of `i + 1` ways; pruned slots are empty.
    let points: Vec<(u32, Point)> = (1..)
        .zip(slots)
        .filter_map(|(ways, slot)| {
            // Invariant: every grid point has 1..=GRID_WAYS ways, a valid design.
            slot.map(|p| (ways, p.expect("grid designs are valid")))
        })
        .collect();

    let mut score_table = Table::new(vec![
        "ways",
        "hit rate",
        "proj energy (uJ)",
        "proj cycles",
        "proj EDP",
        "survives",
    ]);
    let total = scores
        .first()
        .map(|s| s.hits + s.misses)
        .unwrap_or_default();
    for s in &scores {
        score_table.row(vec![
            s.ways.to_string(),
            f3(s.hits as f64 / total.max(1) as f64),
            format!("{:.1}", s.energy_nj / 1e3),
            s.est_cycles.to_string(),
            format!("{:.3e}", s.edp()),
            if s.survives { "yes" } else { "-" }.to_string(),
        ]);
    }

    let mut sim_table = Table::new(vec![
        "ways",
        "miss rate",
        "energy (uJ)",
        "cycles",
        "measured EDP",
    ]);
    for (ways, p) in &points {
        sim_table.row(vec![
            ways.to_string(),
            f3(p.report.l2_miss_rate()),
            format!("{:.1}", measured_energy_nj(p) / 1e3),
            p.report.cycles.to_string(),
            format!("{:.3e}", measured_energy_nj(p) * p.report.cycles as f64),
        ]);
    }

    // Exactness: every simulated LRU point's hit/miss counts equal the
    // profiler's — the engine's headline contract.
    let mut mismatches = 0usize;
    for (ways, p) in &points {
        let s = scores[*ways as usize - 1];
        if p.report.l2_stats.hits() != s.hits || p.report.l2_stats.misses() != s.misses {
            mismatches += 1;
        }
    }
    let exact = ClaimCheck {
        claim: "M1-exact",
        target: "profiler hit/miss counts == simulated l2_stats for every simulated point".into(),
        measured: format!("{} of {} points diverged", mismatches, points.len()),
        pass: mismatches == 0 && !points.is_empty(),
    };

    // Frontier safety: the measured-EDP winner is an analytic survivor.
    // In pruned mode only survivors simulated, so the check degenerates;
    // the unpruned suite run is the real guard.
    let (best, _) = points
        .iter()
        .min_by(|(_, a), (_, b)| {
            let ea = measured_energy_nj(a) * a.report.cycles as f64;
            let eb = measured_energy_nj(b) * b.report.cycles as f64;
            ea.partial_cmp(&eb).expect("finite EDP")
        })
        .expect("grid is non-empty");
    let frontier = ClaimCheck {
        claim: "M1-frontier",
        target: "the measured-EDP-best grid point survives analytic pruning".into(),
        measured: format!(
            "best = {} ways; survivor set = {:?}",
            best,
            scores
                .iter()
                .filter(|s| s.survives)
                .map(|s| s.ways)
                .collect::<Vec<_>>()
        ),
        pass: scores[*best as usize - 1].survives,
    };

    let survivors = scores.iter().filter(|s| s.survives).count();
    let mode = if pruned {
        format!(
            "pruning ON: {survivors} of {GRID_WAYS} grid points simulated, {} skipped",
            GRID_WAYS as usize - points.len()
        )
    } else {
        format!("pruning OFF: all {GRID_WAYS} grid points simulated ({survivors} would survive)")
    };
    ExperimentResult {
        id: "M1",
        title: "Single-pass MRC grid scoring & pruned sweep",
        table: format!(
            "analytic scores (one profiling pass, app `{APP}`):\n\n{}\nsimulated points:\n\n{}",
            score_table.render(),
            sim_table.render()
        ),
        summary: format!(
            "One stack-distance pass over the L2-visible stream scores the whole \
             {GRID_WAYS}-way LRU grid exactly; the (energy, cycles) Pareto frontier keeps \
             {survivors} candidate(s), and only those need full simulation. {mode}. \
             The profiler's counts match the simulator's bit for bit, so pruned sweep \
             results are byte-identical to the unpruned sweep at every surviving point."
        ),
        claims: vec![exact, frontier],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_pass_and_agree_on_scores() {
        let full = run_with(Scale::Quick, Jobs::available(), false);
        assert!(full.passed(), "unpruned claims failed:\n{}", full.render());

        let pruned = run_with(Scale::Quick, Jobs::available(), true);
        assert!(
            pruned.passed(),
            "pruned claims failed:\n{}",
            pruned.render()
        );
        let (grid, skipped, simulated) = last_prune_counts().expect("pruned run records counts");
        assert_eq!(grid, GRID_WAYS as usize);
        assert_eq!(skipped + simulated, grid);
        assert!(skipped > 0, "a {GRID_WAYS}-point grid must prune");

        // The analytic score table is mode-independent.
        let score_block = |r: &ExperimentResult| {
            r.table
                .split("simulated points:")
                .next()
                .expect("table has score block")
                .to_string()
        };
        assert_eq!(score_block(&full), score_block(&pruned));
    }
}
