//! F1 — kernel share of L2 accesses per application.
//!
//! Reproduces the paper's motivating observation (claim C1): in
//! interactive smartphone apps, *more than 40 %* of L2 cache accesses are
//! OS-kernel accesses. The table shows the raw (pre-L1) kernel share and
//! the L2-level share after L1 filtering, which amplifies the kernel's
//! weight because user code caches better in the L1s.

use moca_core::L2Design;
use moca_trace::Mode;

use crate::experiments::matrix::DesignMatrix;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::table::{pct, Table};

/// The designs F1 reads from the shared design matrix.
pub fn designs() -> Vec<L2Design> {
    vec![L2Design::baseline()]
}

/// Builds the result from the baseline column of a design matrix.
///
/// # Panics
///
/// Panics if the matrix holds no baseline column.
pub fn from_matrix(m: &DesignMatrix) -> ExperimentResult {
    let mut table = Table::new(vec![
        "app",
        "raw kernel share",
        "L2 kernel share",
        "L2 accesses/1k refs",
    ]);
    let mut l2_shares = Vec::new();
    for r in m.reports(L2Design::baseline()) {
        let raw = r.l1_stats.mode(Mode::Kernel).accesses() as f64 / r.l1_stats.accesses() as f64;
        let l2 = r.l2_kernel_share();
        let rate = r.l2_stats.accesses() as f64 * 1000.0 / r.refs as f64;
        l2_shares.push(l2);
        table.row(vec![r.app.clone(), pct(raw), pct(l2), format!("{rate:.0}")]);
    }
    let mean = l2_shares.iter().sum::<f64>() / l2_shares.len() as f64;
    table.row(vec!["MEAN".into(), "-".into(), pct(mean), "-".into()]);

    let claims = vec![ClaimCheck {
        claim: "C1",
        target: "suite-mean kernel share of L2 accesses > 40%".into(),
        measured: pct(mean).to_string(),
        pass: mean > 0.40,
    }];
    ExperimentResult {
        id: "F1",
        title: "Kernel share of L2 accesses per app",
        table: table.render(),
        summary: format!(
            "Across the ten-app suite the kernel contributes {} of all L2 accesses on \
             the shared baseline (raw trace shares are lower; the L1s filter user \
             traffic harder, amplifying the kernel's weight at the L2). This is the \
             interference source the paper's partitioning removes.",
            pct(mean)
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
    fn kernel_share_exceeds_forty_percent() {
        let r = from_matrix(&run_matrix(&designs(), Scale::Quick, Jobs::available()));
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("browser"));
        assert!(r.table.contains("MEAN"));
    }
}
