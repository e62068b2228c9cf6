//! F2 — user/kernel interference in the shared L2.
//!
//! Reproduces claim C2: kernel and user blocks interfere destructively in
//! a shared L2. Measured two ways:
//!
//! * the **cross-mode eviction share** of the shared baseline — the
//!   fraction of evictions where a fill from one mode displaced a valid
//!   block of the other mode, and
//! * the miss-rate gap between the shared cache and an
//!   **interference-free** configuration that gives each mode its own
//!   full-size segment (16 user + 16 kernel ways, i.e. double capacity —
//!   an idealized bound, not a proposal).

use moca_core::L2Design;

use crate::experiments::matrix::{interference_free, DesignMatrix};
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::table::{f3, pct, Table};

/// The designs F2 reads from the shared design matrix: the shared
/// baseline and the interference-free bound.
pub fn designs() -> Vec<L2Design> {
    vec![L2Design::baseline(), interference_free()]
}

/// Builds the result from the baseline and interference-free columns
/// of a design matrix.
///
/// # Panics
///
/// Panics if the matrix lacks either column.
pub fn from_matrix(m: &DesignMatrix) -> ExperimentResult {
    let mut table = Table::new(vec![
        "app",
        "shared miss",
        "isolated miss",
        "interference miss delta",
        "cross-mode eviction share",
    ]);
    let mut cross_shares = Vec::new();
    let mut deltas = Vec::new();
    let pairs = m
        .reports(L2Design::baseline())
        .zip(m.reports(interference_free()));
    for (shared, iso) in pairs {
        let delta = shared.l2_miss_rate() - iso.l2_miss_rate();
        let cross = shared.l2_stats.cross_eviction_share();
        cross_shares.push(cross);
        deltas.push(delta);
        table.row(vec![
            shared.app.clone(),
            f3(shared.l2_miss_rate()),
            f3(iso.l2_miss_rate()),
            format!("{delta:+.3}"),
            pct(cross),
        ]);
    }
    let mean_cross = cross_shares.iter().sum::<f64>() / cross_shares.len() as f64;
    let mean_delta = deltas.iter().sum::<f64>() / deltas.len() as f64;
    table.row(vec![
        "MEAN".into(),
        "-".into(),
        "-".into(),
        format!("{mean_delta:+.3}"),
        pct(mean_cross),
    ]);

    let claims = vec![
        ClaimCheck {
            claim: "C2",
            target: "cross-mode evictions are a substantial share of shared-L2 evictions (> 15%)"
                .into(),
            measured: pct(mean_cross),
            pass: mean_cross > 0.15,
        },
        ClaimCheck {
            claim: "C2",
            target: "removing interference lowers the miss rate (mean delta > 0)".into(),
            measured: format!("{mean_delta:+.4}"),
            pass: mean_delta > 0.0,
        },
    ];
    ExperimentResult {
        id: "F2",
        title: "User/kernel interference in the shared L2",
        table: table.render(),
        summary: format!(
            "In the shared baseline, {} of all evictions displace a block owned by \
             the other privilege mode; an interference-free configuration lowers the \
             miss rate by {:.1} percentage points on average. These 'unnecessary block \
             replacements' motivate partitioning.",
            pct(mean_cross),
            mean_delta * 100.0
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
    fn interference_is_visible() {
        let r = from_matrix(&run_matrix(&designs(), Scale::Quick, Jobs::available()));
        assert!(r.passed(), "claims failed:\n{}", r.render());
    }
}
