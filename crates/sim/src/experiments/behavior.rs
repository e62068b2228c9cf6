//! F4 — access behaviour of the separated user and kernel segments.
//!
//! Reproduces claim C4: once the L2 is partitioned, the two segments show
//! completely different access behaviour. The table reports, per segment,
//! the median re-reference interval, the 95th-percentile block lifetime,
//! the dead-on-arrival fraction, and the STT-RAM retention class the
//! analyzer recommends from the lifetime distribution — the input to the
//! multi-retention design (F5/T2).

use moca_core::{recommend_retention, L2Design};
use moca_energy::RetentionClass;
use moca_trace::Mode;

use crate::experiments::matrix::DesignMatrix;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::table::{pct, Table};

/// Lifetime quantile a retention class must cover.
pub const COVERAGE: f64 = 0.95;

fn fmt_cycles_ms(c: Option<u64>) -> String {
    match c {
        None => "-".into(),
        Some(cycles) => format!("{:.2} ms", cycles as f64 / 1e6),
    }
}

/// The designs F4 reads from the shared design matrix: the static SRAM
/// partition.
pub fn designs() -> Vec<L2Design> {
    vec![L2Design::StaticSram {
        user_ways: 6,
        kernel_ways: 4,
    }]
}

/// Builds the result from the static SRAM partition's column, one row
/// per (app, segment).
///
/// # Panics
///
/// Panics if the matrix holds no column for the static SRAM partition.
pub fn from_matrix(m: &DesignMatrix) -> ExperimentResult {
    let mut table = Table::new(vec![
        "app",
        "segment",
        "median reuse",
        "p95 lifetime",
        "dead blocks",
        "recommended retention",
    ]);
    let mut recs: Vec<(RetentionClass, RetentionClass)> = Vec::new();
    for r in m.reports(designs()[0]) {
        let mut row_rec = (RetentionClass::TenYears, RetentionClass::TenYears);
        for mode in Mode::ALL {
            let b = r.behavior(mode);
            let rec = recommend_retention(&b.lifetime, r.clock_ghz, COVERAGE);
            match mode {
                Mode::User => row_rec.0 = rec,
                Mode::Kernel => row_rec.1 = rec,
            }
            table.row(vec![
                r.app.clone(),
                mode.to_string(),
                fmt_cycles_ms(b.reuse.median()),
                fmt_cycles_ms(b.lifetime.quantile(COVERAGE)),
                pct(b.dead_fraction()),
                rec.label(),
            ]);
        }
        recs.push(row_rec);
    }

    // Claim: kernel lifetimes are no longer than user lifetimes (kernel
    // blocks turn over at least as fast), so the kernel segment can use a
    // retention class at most as long as the user segment's.
    let kernel_not_longer = recs
        .iter()
        .filter(|(u, k)| k.duration().secs() <= u.duration().secs())
        .count();
    let volatile_ok = recs.iter().all(|(u, k)| u.is_volatile() && k.is_volatile());

    let claims = vec![
        ClaimCheck {
            claim: "C4",
            target: "kernel retention recommendation <= user's in a majority of apps".into(),
            measured: format!("{kernel_not_longer}/10 apps"),
            pass: kernel_not_longer >= 6,
        },
        ClaimCheck {
            claim: "C4/C5",
            target: "both segments' lifetimes are covered by volatile (sub-hour) retention classes"
                .into(),
            measured: format!("all volatile = {volatile_ok}"),
            pass: volatile_ok,
        },
    ];
    ExperimentResult {
        id: "F4",
        title: "Segment access behaviour and retention recommendation",
        table: table.render(),
        summary: "Block lifetimes in both segments are orders of magnitude below the \
                  10-year non-volatile retention point, and kernel blocks turn over at \
                  least as fast as user blocks — so each segment can adopt a relaxed, \
                  write-cheap retention class, with the kernel segment taking the \
                  shortest one."
            .into(),
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
    fn behaviour_supports_multi_retention() {
        let r = from_matrix(&run_matrix(&designs(), Scale::Quick, Jobs::available()));
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("kernel"));
    }
}
