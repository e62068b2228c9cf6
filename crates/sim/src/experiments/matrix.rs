//! The shared design matrix: every app on every design the matrix
//! experiments read.
//!
//! F1 (kernel share), F2 (interference), T2 (energy) and F6
//! (performance) all read one [`DesignMatrix`], each looking its columns
//! up by design, so the four experiments describe the same simulations
//! and a design two of them read is simulated once.

use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::lockstep::{execute, Plan};
use crate::metrics::SimReport;
use crate::parallel::{parallel_map, Jobs};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// The four headline designs of the reproduced evaluation, in table
/// order: baseline, static SRAM partition, static multi-retention
/// STT-RAM, dynamic STT-RAM.
pub fn headline_designs() -> Vec<L2Design> {
    vec![
        L2Design::baseline(),
        L2Design::StaticSram {
            user_ways: 6,
            kernel_ways: 4,
        },
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ]
}

/// F2's interference-free bound: each mode gets its own full-size
/// segment (16 user + 16 kernel ways, i.e. double capacity).
pub fn interference_free() -> L2Design {
    L2Design::StaticSram {
        user_ways: 16,
        kernel_ways: 16,
    }
}

/// Column order of every matrix: the headline designs, then the
/// interference-free bound.
pub fn column_order() -> Vec<L2Design> {
    let mut designs = headline_designs();
    designs.push(interference_free());
    designs
}

/// The union of `designs` in [`column_order`], without duplicates;
/// designs outside it follow in first-seen order.
pub fn union(designs: impl IntoIterator<Item = L2Design>) -> Vec<L2Design> {
    let order = column_order();
    let mut out: Vec<L2Design> = Vec::new();
    for design in designs {
        if !out.contains(&design) {
            out.push(design);
        }
    }
    // Stable: unknown designs keep their relative order at the end.
    out.sort_by_key(|d| order.iter().position(|o| o == d).unwrap_or(order.len()));
    out
}

/// Design lanes per lock-step group in [`run_matrix`].
///
/// Each L2 way costs ≈100 KiB of state (2048 sets × tag, signature,
/// cold metadata and LRU stamp), and a lane group holds every lane's L2
/// at once. Over the full [`column_order`] width 2 pairs the designs as
/// {16 + 10 ways}, {10 + 16} and {32}: no group holds more state than
/// the 32-way interference-free cell on its own, so peak memory stays
/// where one design at a time puts it. Wider groups share the front end
/// further but grow peak memory by the extra lanes' L2s.
const MATRIX_LANE_GROUP: usize = 2;

/// All apps × a set of designs.
#[derive(Debug, Clone)]
pub struct DesignMatrix {
    /// The designs, in column order.
    pub designs: Vec<L2Design>,
    /// `rows[app][design]` simulation reports, apps in suite order.
    pub rows: Vec<Vec<SimReport>>,
}

impl DesignMatrix {
    /// The column of `design`, if the matrix holds it.
    pub fn column(&self, design: L2Design) -> Option<usize> {
        self.designs.iter().position(|d| *d == design)
    }

    /// `true` when the matrix holds a column for every design listed.
    pub fn covers(&self, designs: &[L2Design]) -> bool {
        designs.iter().all(|d| self.column(*d).is_some())
    }

    /// The reports of `design`, one per app in row order.
    ///
    /// # Panics
    ///
    /// Panics if the matrix holds no column for `design`.
    pub fn reports(&self, design: L2Design) -> impl Iterator<Item = &SimReport> {
        let col = self.expect_column(design);
        self.rows.iter().map(move |r| &r[col])
    }

    /// The matrix restricted to `designs`, in that column order.
    ///
    /// # Panics
    ///
    /// Panics if the matrix holds no column for one of `designs`.
    pub fn select(&self, designs: &[L2Design]) -> DesignMatrix {
        let cols: Vec<usize> = designs.iter().map(|d| self.expect_column(*d)).collect();
        DesignMatrix {
            designs: designs.to_vec(),
            rows: self
                .rows
                .iter()
                .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                .collect(),
        }
    }

    fn expect_column(&self, design: L2Design) -> usize {
        self.column(design)
            .unwrap_or_else(|| panic!("design matrix has no column for {}", design.label()))
    }

    /// The baseline report for app row `i`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix holds no baseline column.
    pub fn baseline(&self, i: usize) -> &SimReport {
        &self.rows[i][self.expect_column(L2Design::baseline())]
    }

    /// Iterator of app names (row order).
    pub fn app_names(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|r| r[0].app.as_str())
    }

    /// Mean over apps of `f(report, baseline)` for design column `d`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix holds no baseline column.
    pub fn mean_over_apps<F>(&self, d: usize, f: F) -> f64
    where
        F: Fn(&SimReport, &SimReport) -> f64,
    {
        let base = self.expect_column(L2Design::baseline());
        let n = self.rows.len() as f64;
        self.rows.iter().map(|r| f(&r[d], &r[base])).sum::<f64>() / n
    }
}

/// Runs every suite app on every design at the given scale.
///
/// Each app is one lock-step run: one stream and one L1 filter pass per
/// lane group of `MATRIX_LANE_GROUP` (two) designs, with the designs as
/// lanes. Apps are sharded over `jobs` threads and merged back in suite
/// order. Every cell is byte-identical to a scalar
/// [`run_app`](crate::workloads::run_app) of its (app, design), for
/// every job count.
///
/// The streams bypass the filtered-run memo: each lane group filters
/// its stream live, once. Caching a run per app would buy nothing here
/// and would hold several MB per app, raising the peak memory of a
/// matrix-only run well past its current footprint.
///
/// # Panics
///
/// Panics if a design is invalid.
pub fn run_matrix(designs: &[L2Design], scale: Scale, jobs: Jobs) -> DesignMatrix {
    let rows = parallel_map(jobs, AppProfile::suite(), |app| {
        let plan = Plan::new(&app, EXPERIMENT_SEED, scale.refs(), designs)
            .with_lane_group(MATRIX_LANE_GROUP)
            .unmemoized();
        execute(&plan, Jobs::SERIAL, None)
            .expect("uncancellable run cannot be cancelled")
            .into_iter()
            // Invariant: every caller passes the experiments' constant,
            // valid designs (see `# Panics`).
            .map(|p| p.expect("matrix designs are valid").report)
            .collect()
    });
    DesignMatrix {
        designs: designs.to_vec(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_app;

    #[test]
    fn headline_designs_start_with_baseline() {
        let d = headline_designs();
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], L2Design::baseline());
    }

    #[test]
    fn union_follows_column_order() {
        let iso = interference_free();
        let odd = L2Design::SharedSram { ways: 4 };
        assert_eq!(
            union([iso, odd, L2Design::baseline(), iso]),
            vec![L2Design::baseline(), iso, odd]
        );
        assert_eq!(union(column_order().into_iter().rev()), column_order());
    }

    #[test]
    fn matrix_shape_is_apps_by_designs() {
        // A tiny matrix (not Quick scale) to keep the test fast.
        let designs = headline_designs();
        let rows: Vec<Vec<SimReport>> = AppProfile::suite()[..2]
            .iter()
            .map(|app| {
                designs
                    .iter()
                    .map(|d| run_app(app, *d, 30_000, 1))
                    .collect()
            })
            .collect();
        let m = DesignMatrix { designs, rows };
        assert_eq!(m.rows.len(), 2);
        assert_eq!(m.rows[0].len(), 4);
        assert_eq!(m.baseline(0).design, L2Design::baseline().label());
        let mean = m.mean_over_apps(1, |r, b| r.slowdown_vs(b));
        assert!(mean > 0.5 && mean < 2.0);
        assert_eq!(m.app_names().count(), 2);
    }

    #[test]
    fn select_looks_columns_up_by_design() {
        let designs = column_order();
        let app = AppProfile::music();
        let rows = vec![designs
            .iter()
            .map(|d| run_app(&app, *d, 5_000, 1))
            .collect()];
        let m = DesignMatrix { designs, rows };
        let picked = m.select(&[interference_free(), L2Design::baseline()]);
        assert_eq!(
            picked.designs,
            vec![interference_free(), L2Design::baseline()]
        );
        assert_eq!(picked.rows[0][0].design, interference_free().label());
        assert_eq!(picked.baseline(0).design, L2Design::baseline().label());
        assert!(m.covers(&headline_designs()));
        assert!(!picked.covers(&headline_designs()));
        let isolated: Vec<_> = m.reports(interference_free()).collect();
        assert_eq!(isolated.len(), 1);
        assert_eq!(isolated[0].design, interference_free().label());
    }
}
