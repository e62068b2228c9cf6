//! T2 — normalized L2 energy per design (the headline table).
//!
//! Reproduces claims C7/C8: the static multi-retention technique cuts L2
//! energy by ~75 % and the dynamic short-retention technique by ~85 %
//! relative to the shared SRAM baseline. Absolute joules differ from the
//! authors' CACTI/NVSim testbed; the reproduction targets the *shape*:
//! large savings, dynamic > static, leakage the dominant component saved.

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
    let labels: Vec<String> = m.designs.iter().map(|d| d.label()).collect();
    let mut headers = vec!["app".to_string()];
    headers.extend(labels.iter().cloned());
    let mut table = Table::new(headers);

    for row in &m.rows {
        let mut cells = vec![row[0].app.clone()];
        for r in row.iter() {
            cells.push(format!("{:.3}", r.energy_ratio_vs(&row[0])));
        }
        table.row(cells);
    }
    let mut mean_cells = vec!["MEAN".to_string()];
    let mut means = Vec::new();
    for d in 0..m.designs.len() {
        let mean = m.mean_over_apps(d, |r, b| r.energy_ratio_vs(b));
        means.push(mean);
        mean_cells.push(format!("{mean:.3}"));
    }
    table.row(mean_cells);

    // Component breakdown of the baseline and the two techniques (suite
    // means) — shows *where* the savings come from.
    let mut breakdown = Table::new(vec![
        "design",
        "leakage share",
        "dynamic share",
        "refresh share",
    ]);
    for d in [0usize, 2, 3] {
        let leak = m.mean_over_apps(d, |r, _| r.l2_energy.leakage_fraction());
        let dynamic = m.mean_over_apps(d, |r, _| {
            r.l2_energy.dynamic().pj() / r.l2_energy.total().pj()
        });
        let refresh = m.mean_over_apps(d, |r, _| {
            r.l2_energy.refresh.pj() / r.l2_energy.total().pj()
        });
        breakdown.row(vec![
            m.designs[d].label(),
            pct(leak),
            pct(dynamic),
            pct(refresh),
        ]);
    }

    // Energy-delay product, normalized per app then averaged — penalizes
    // designs that buy energy with execution time.
    let mut edp_cells = vec!["norm EDP (mean)".to_string()];
    for d in 0..m.designs.len() {
        let edp = m.mean_over_apps(d, |r, b| {
            (r.l2_energy_total().joules() * r.duration().secs())
                / (b.l2_energy_total().joules() * b.duration().secs())
        });
        edp_cells.push(format!("{edp:.3}"));
    }
    table.row(edp_cells);

    let static_saving = 1.0 - means[2];
    let dynamic_saving = 1.0 - means[3];
    let claims = vec![
        ClaimCheck {
            claim: "C7",
            target: "static multi-retention technique saves ~75% L2 energy (accept >= 65%)".into(),
            measured: pct(static_saving),
            pass: static_saving >= 0.65,
        },
        ClaimCheck {
            claim: "C8",
            target: "dynamic technique saves ~85% L2 energy (accept >= 75%)".into(),
            measured: pct(dynamic_saving),
            pass: dynamic_saving >= 0.75,
        },
        ClaimCheck {
            claim: "C6/C8",
            target: "dynamic saves more than static".into(),
            measured: format!("{} vs {}", pct(dynamic_saving), pct(static_saving)),
            pass: dynamic_saving > static_saving,
        },
    ];
    ExperimentResult {
        id: "T2",
        title: "Normalized L2 energy per design (baseline = 1.0)",
        table: format!("{}\n{}", table.render(), breakdown.render()),
        summary: format!(
            "The static multi-retention design saves {} of L2 energy and the dynamic \
             short-retention design {}. The breakdown shows why: the SRAM baseline is \
             leakage-dominated, and STT-RAM plus size reduction removes almost all of \
             it, at the cost of pricier writes (dynamic share grows).",
            pct(static_saving),
            pct(dynamic_saving)
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
    fn energy_table_shape_holds_on_small_runs() {
        // A reduced matrix (3 apps, short traces) — claims may be noisier
        // than the full run, so only check structure + ordering here.
        let designs = headline_designs();
        let rows: Vec<Vec<SimReport>> = AppProfile::suite()[..3]
            .iter()
            .map(|app| {
                designs
                    .iter()
                    .map(|d| run_app(app, *d, 400_000, 7))
                    .collect()
            })
            .collect();
        let m = DesignMatrix { designs, rows };
        let r = from_matrix(&m);
        assert!(r.table.contains("MEAN"));
        assert!(r.table.contains("leakage share"));
        // Both techniques must save a lot of energy even on short runs.
        let static_mean = m.mean_over_apps(2, |x, b| x.energy_ratio_vs(b));
        assert!(static_mean < 0.5, "static norm energy {static_mean}");
    }
}
