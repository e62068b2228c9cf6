//! F6 — normalized performance per design.
//!
//! Reproduces the performance half of claims C7/C8: the paper reports
//! 2 % performance loss for the static technique and 3 % for the dynamic
//! one. The metric is cycles-per-reference normalized to the shared SRAM
//! baseline (`> 1.0` = slower).

use moca_core::L2Design;

use crate::experiments::matrix::{headline_designs, DesignMatrix};
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::table::{pct, Table};

/// The designs this experiment reads from the shared design matrix.
pub fn designs() -> Vec<L2Design> {
    headline_designs()
}

/// Builds the result from the headline-design columns of a design
/// matrix, in [`headline_designs`] order.
///
/// # Panics
///
/// Panics if the matrix lacks a headline design.
pub fn from_matrix(m: &DesignMatrix) -> ExperimentResult {
    let m = &m.select(&designs());
    let mut headers = vec!["app".to_string()];
    headers.extend(m.designs.iter().map(|d| d.label()));
    let mut table = Table::new(headers);

    for row in &m.rows {
        let mut cells = vec![row[0].app.clone()];
        for r in row.iter() {
            cells.push(format!("{:.3}", r.slowdown_vs(&row[0])));
        }
        table.row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_string()];
    let mut means = Vec::new();
    for d in 0..m.designs.len() {
        let mean = m.mean_over_apps(d, |r, b| r.slowdown_vs(b));
        means.push(mean);
        mean_cells.push(format!("{mean:.3}"));
    }
    table.row(mean_cells);

    let static_loss = means[2] - 1.0;
    let dynamic_loss = means[3] - 1.0;
    let claims = vec![
        ClaimCheck {
            claim: "C7",
            target: "static technique performance loss ~2% (accept <= 5%)".into(),
            measured: pct(static_loss),
            pass: static_loss <= 0.05,
        },
        ClaimCheck {
            claim: "C8",
            target: "dynamic technique performance loss ~3% (accept <= 6%)".into(),
            measured: pct(dynamic_loss),
            pass: dynamic_loss <= 0.06,
        },
        ClaimCheck {
            claim: "C7/C8",
            target: "dynamic loses slightly more performance than static (paper: 3% vs 2%)".into(),
            measured: format!("{} vs {}", pct(dynamic_loss), pct(static_loss)),
            pass: dynamic_loss >= static_loss - 0.005,
        },
    ];
    ExperimentResult {
        id: "F6",
        title: "Normalized execution time per design (baseline = 1.0)",
        table: table.render(),
        summary: format!(
            "Cycles-per-reference rises by {} for the static multi-retention design \
             (shrunk capacity + STT-RAM write latency) and by {} for the dynamic \
             design (adds adaptation transients and retention expiry) — small prices \
             for the energy savings of T2.",
            pct(static_loss),
            pct(dynamic_loss)
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimReport;
    use crate::workloads::run_app;
    use moca_trace::AppProfile;

    #[test]
    fn performance_table_structure() {
        let designs = headline_designs();
        let rows: Vec<Vec<SimReport>> = AppProfile::suite()[..2]
            .iter()
            .map(|app| {
                designs
                    .iter()
                    .map(|d| run_app(app, *d, 300_000, 7))
                    .collect()
            })
            .collect();
        let m = DesignMatrix { designs, rows };
        let r = from_matrix(&m);
        assert!(r.table.contains("MEAN"));
        // Baseline column is exactly 1.0 for every app.
        for line in r.table.lines().skip(2) {
            if line.starts_with("MEAN") || line.is_empty() {
                continue;
            }
            assert!(line.contains("1.000"), "baseline column missing in {line}");
        }
    }
}
