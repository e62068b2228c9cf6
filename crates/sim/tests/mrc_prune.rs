//! Sweep-level differential suite for MRC-based pruning.
//!
//! The pruning contract has three parts, each pinned here:
//!
//! 1. **Byte-identity** — every point a pruned sweep simulates renders
//!    (via [`csv_row`], wall time blanked) byte-identically to the same
//!    point of a full, unpruned sweep, for job counts 1, 2 and 8.
//! 2. **Determinism** — the survivor set itself is identical for every
//!    job count (the profiling pass runs before any simulation and
//!    never depends on scheduling).
//! 3. **Exactness** — the analytic scores' hit/miss counts equal the
//!    simulated `l2_stats` of *every* grid point of the unpruned sweep,
//!    not just the survivors.
//!
//! Non-scorable designs (partitioned, dynamic) ride through the same
//! entry point untouched: they always simulate.

use moca_core::L2Design;
use moca_sim::parallel::Jobs;
use moca_sim::sweep::{csv_row, sweep, sweep_pruned, PrunedSweep, SweepPoint, CSV_HEADER};
use moca_sim::{profile_lru_grid, score_lru_grid, write_csv};
use moca_trace::AppProfile;

const REFS: usize = 30_000;
const SEED: u64 = 7;
const GRID_WAYS: u32 = 12;

/// LRU grid points interleaved with non-scorable designs, the way a
/// real mixed sweep would present them.
fn mixed_designs() -> Vec<L2Design> {
    let mut designs: Vec<L2Design> = (1..=GRID_WAYS)
        .map(|ways| L2Design::SharedSram { ways })
        .collect();
    designs.insert(4, L2Design::static_default());
    designs.push(L2Design::dynamic_default());
    designs
}

/// The simulated points of a pruned sweep whose every design is valid.
fn simulated<P>(pruned: &PrunedSweep<P>) -> Vec<&SweepPoint<P>> {
    pruned
        .points
        .iter()
        .map(|p| p.as_ref().expect("valid design"))
        .collect()
}

fn rows(points: &PrunedSweep<L2Design>) -> Vec<String> {
    simulated(points)
        .iter()
        .map(|p| csv_row(&p.report, 0))
        .collect()
}

#[test]
fn pruned_subset_is_byte_identical_to_unpruned_sweep_at_every_job_count() {
    let app = AppProfile::game();
    let designs = mixed_designs();
    let to_design = |d: &L2Design| *d;

    let full = sweep(&designs, to_design, &app, REFS, SEED, Jobs::SERIAL);
    let full_rows: Vec<String> = full
        .iter()
        .map(|p| csv_row(&p.as_ref().expect("valid design").report, 0))
        .collect();

    let serial = sweep_pruned(&designs, to_design, &app, REFS, SEED, Jobs::SERIAL);
    assert_eq!(serial.grid_points, GRID_WAYS as usize);
    assert!(serial.pruned_points > 0, "a {GRID_WAYS}-point grid must prune");
    let serial_params: Vec<L2Design> = simulated(&serial).iter().map(|p| p.param).collect();
    let serial_rows = rows(&serial);

    // Both non-scorable designs bypass the profiler and simulate.
    for d in [L2Design::static_default(), L2Design::dynamic_default()] {
        assert!(
            serial_params.contains(&d),
            "non-scorable design {d:?} must always simulate"
        );
    }

    // Simulated points appear in the original design order and match
    // the unpruned sweep byte for byte.
    for (param, row) in serial_params.iter().zip(&serial_rows) {
        let idx = designs
            .iter()
            .position(|d| d == param)
            .expect("simulated param came from the input designs");
        assert_eq!(row, &full_rows[idx], "pruned point {param:?} diverged");
    }
    let positions: Vec<usize> = serial_params
        .iter()
        .map(|p| designs.iter().position(|d| d == p).expect("known param"))
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "simulated points must preserve input order: {positions:?}"
    );

    // Same survivor set, same bytes, for every job count.
    for jobs in [1usize, 2, 8] {
        let par = sweep_pruned(&designs, to_design, &app, REFS, SEED, Jobs::new(jobs));
        let par_params: Vec<L2Design> = simulated(&par).iter().map(|p| p.param).collect();
        assert_eq!(serial_params, par_params, "survivor set changed at jobs={jobs}");
        assert_eq!(serial_rows, rows(&par), "report bytes changed at jobs={jobs}");
        assert_eq!(serial.pruned_points, par.pruned_points);
        assert_eq!(
            serial.scores, par.scores,
            "analytic scores changed at jobs={jobs}"
        );
    }
}

/// Every emitted point must carry *its own* report and wall time: with
/// pruned grid points and non-scorable designs interleaved, the
/// `(param, report, wall_ns)` triple is re-zipped after two filters,
/// and a misalignment would pair a row's identity column with a
/// different design's measurements.
#[test]
fn csv_emission_pairs_each_param_with_its_own_report_and_wall_time() {
    let app = AppProfile::game();
    let designs = mixed_designs();
    for jobs in [1usize, 2, 8] {
        let pruned = sweep_pruned(&designs, |d: &L2Design| *d, &app, REFS, SEED, Jobs::new(jobs));
        assert!(pruned.pruned_points > 0, "the grid must prune");
        let points = simulated(&pruned);
        for point in &points {
            assert_eq!(
                point.report.design,
                point.param.label(),
                "report paired with the wrong param at jobs={jobs}"
            );
            assert!(
                point.wall_ns > 0,
                "wall time lost for {} at jobs={jobs}",
                point.param.label()
            );
        }

        // Through the CSV writer: one row per surviving point, design
        // column in input order, wall_ns column from the same point.
        let mut buf = Vec::new();
        write_csv(&mut buf, points.iter().map(|p| (&p.report, p.wall_ns)))
            .expect("csv to a Vec");
        let csv = String::from_utf8(buf).expect("utf8");
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), points.len());
        for (row, point) in rows.iter().zip(&points) {
            assert_eq!(row, &csv_row(&point.report, point.wall_ns));
            let design_field = row.split(',').nth(1).expect("design column");
            assert_eq!(design_field, point.param.label());
            let wall_field = row.rsplit(',').next().expect("wall_ns column");
            assert_eq!(wall_field, point.wall_ns.to_string());
        }
    }
}

#[test]
fn analytic_scores_are_exact_for_every_grid_point_of_the_full_sweep() {
    let app = AppProfile::browser();
    let ways: Vec<u32> = (1..=GRID_WAYS).collect();
    let full = sweep(
        &ways,
        |&w| L2Design::SharedSram { ways: w },
        &app,
        REFS,
        SEED,
        Jobs::SERIAL,
    );

    let curve = profile_lru_grid(&app, REFS, SEED, GRID_WAYS);
    let scores = score_lru_grid(&curve, REFS);
    assert_eq!(scores.len(), GRID_WAYS as usize);
    for (point, score) in full.iter().zip(&scores) {
        let point = point.as_ref().expect("valid design");
        assert_eq!(point.param, score.ways);
        assert_eq!(
            point.report.l2_stats.hits(),
            score.hits,
            "hits diverged at {} ways",
            score.ways
        );
        assert_eq!(
            point.report.l2_stats.misses(),
            score.misses,
            "misses diverged at {} ways",
            score.ways
        );
    }
}
