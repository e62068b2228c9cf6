//! F7 — dynamic partition adaptation over time.
//!
//! Reproduces claim C6: the dynamic controller minimizes the active cache
//! size, repartitioning the user/kernel segments each epoch and power-gating
//! unused ways. The table samples the allocation timeline of two
//! representative apps, read from the shared design matrix.

use moca_core::L2Design;

use crate::experiments::matrix::DesignMatrix;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::table::Table;

/// Apps shown in the timeline table, in suite order.
pub const TIMELINE_APPS: [&str; 2] = ["browser", "camera"];

/// Timeline samples shown per app.
const SAMPLES: usize = 12;

/// The designs F7 reads from the shared design matrix.
pub fn designs() -> Vec<L2Design> {
    vec![L2Design::dynamic_default()]
}

/// Builds the result from the [`TIMELINE_APPS`] rows of the dynamic
/// design's column.
///
/// # Panics
///
/// Panics if the matrix holds no column for the dynamic design.
pub fn from_matrix(m: &DesignMatrix) -> ExperimentResult {
    let mut table = Table::new(vec![
        "app",
        "time (ms)",
        "user ways",
        "kernel ways",
        "total",
    ]);
    let mut mean_ways = Vec::new();
    let mut changes = Vec::new();
    let runs = m
        .reports(L2Design::dynamic_default())
        .filter(|r| TIMELINE_APPS.contains(&r.app.as_str()));
    for r in runs {
        mean_ways.push(r.mean_active_ways);
        changes.push(r.timeline.len().saturating_sub(1));
        let step = (r.timeline.len() / SAMPLES).max(1);
        for s in r.timeline.iter().step_by(step) {
            table.row(vec![
                r.app.clone(),
                format!("{:.2}", s.cycle as f64 / (r.clock_ghz * 1e6)),
                s.user_ways.to_string(),
                s.kernel_ways.to_string(),
                (s.user_ways + s.kernel_ways).to_string(),
            ]);
        }
    }
    let mean = mean_ways.iter().sum::<f64>() / mean_ways.len() as f64;
    let total_changes: usize = changes.iter().sum();

    let claims = vec![
        ClaimCheck {
            claim: "C6",
            target: "dynamic design power-gates capacity (time-weighted mean < 16 ways)".into(),
            measured: format!("{mean:.1} mean active ways"),
            pass: mean < 16.0,
        },
        ClaimCheck {
            claim: "C6",
            target: "allocation actually adapts over time (> 3 repartitions)".into(),
            measured: format!("{total_changes} repartitions"),
            pass: total_changes > 3,
        },
    ];
    ExperimentResult {
        id: "F7",
        title: "Dynamic partition adaptation (active ways over time)",
        table: table.render(),
        summary: format!(
            "Starting from an even 8+8 split, the controller shrinks each segment to \
             the smallest allocation that preserves its hits and tracks phase changes; \
             the time-weighted mean is {mean:.1} active ways (of 16), with unused ways \
             power-gated."
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::matrix::run_matrix;
    use crate::parallel::Jobs;
    use crate::workloads::Scale;

    #[test]
    fn dynamic_adapts() {
        let r = from_matrix(&run_matrix(&designs(), Scale::Quick, Jobs::available()));
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("browser"));
        assert!(r.table.contains("camera"));
    }
}
