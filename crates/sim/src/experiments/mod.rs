//! The reproduced evaluation: one module per figure/table of `DESIGN.md`'s
//! experiment index.
//!
//! Every experiment returns an [`ExperimentResult`] containing the
//! rendered data table, a prose summary, and machine-checkable
//! [`ClaimCheck`]s against the paper's abstract-level claims (C1–C8 in
//! `DESIGN.md`). The `repro` binary runs them all and regenerates the
//! data behind `EXPERIMENTS.md`.

pub mod adaptation;
pub mod area;
pub mod behavior;
pub mod duty_cycle;
pub mod energy_table;
pub mod hybrid_study;
pub mod interference;
pub mod kernel_share;
pub mod matrix;
pub mod mrc_sweep;
pub mod multitask;
pub mod partition_style;
pub mod performance;
pub mod prefetch_study;
pub mod retention_sweep;
pub mod sensitivity;
pub mod static_sweep;
pub mod temperature;

use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::experiments::matrix::DesignMatrix;
use crate::lockstep::{execute, Plan};
use crate::metrics::SimReport;
use crate::parallel::{parallel_map, Jobs};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// A paper claim checked against measured data.
#[derive(Debug, Clone)]
pub struct ClaimCheck {
    /// Claim id from `DESIGN.md` (e.g. `"C1"`).
    pub claim: &'static str,
    /// What the paper states / the reproduction targets.
    pub target: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement satisfies the target band.
    pub pass: bool,
}

impl std::fmt::Display for ClaimCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}: target {}, measured {}",
            if self.pass { "PASS" } else { "FAIL" },
            self.claim,
            self.target,
            self.measured
        )
    }
}

/// Output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id from the `DESIGN.md` index (e.g. `"F1"`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Rendered data table(s).
    pub table: String,
    /// One-paragraph interpretation.
    pub summary: String,
    /// Claim checks.
    pub claims: Vec<ClaimCheck>,
}

impl ExperimentResult {
    /// `true` when every claim check passed.
    pub fn passed(&self) -> bool {
        self.claims.iter().all(|c| c.pass)
    }

    /// Renders the full experiment block (title, table, summary, claims).
    pub fn render(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n{}\n{}\n",
            self.id, self.title, self.table, self.summary
        );
        for c in &self.claims {
            out.push_str(&format!("{c}\n"));
        }
        out.push('\n');
        out
    }
}

/// Ids of the experiments [`all`] runs, in suite order.
pub const SUITE_IDS: [&str; 17] = [
    "F1", "F2", "F3", "F4", "F5", "T2", "F6", "F7", "F8", "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "M1",
];

/// The designs a matrix experiment reads, and how it renders them.
type MatrixExperiment = (fn() -> Vec<L2Design>, fn(&DesignMatrix) -> ExperimentResult);

/// The matrix experiment with (upper-case) id `id`, or `None` when `id`
/// runs its own simulations or is unknown.
fn matrix_experiment(id: &str) -> Option<MatrixExperiment> {
    match id {
        "F1" => Some((kernel_share::designs, kernel_share::from_matrix)),
        "F2" => Some((interference::designs, interference::from_matrix)),
        "F4" => Some((behavior::designs, behavior::from_matrix)),
        "T2" => Some((energy_table::designs, energy_table::from_matrix)),
        "F6" => Some((performance::designs, performance::from_matrix)),
        "F7" => Some((adaptation::designs, adaptation::from_matrix)),
        _ => None,
    }
}

/// Runs experiments by id, computing the shared design matrix at most
/// once for all of them.
///
/// The matrix covers the union of the designs read by the matrix
/// experiments the runner was built for, so every one of them reads the
/// same simulations and a design several of them read (the baseline) is
/// simulated once. Asking for a matrix experiment outside that set
/// still works: the matrix is recomputed over the widened union.
#[derive(Debug)]
pub struct Runner {
    scale: Scale,
    jobs: Jobs,
    /// The designs the matrix is computed over on first use.
    designs: Vec<L2Design>,
    matrix: Option<DesignMatrix>,
}

impl Runner {
    /// A runner whose matrix covers the designs of the matrix
    /// experiments among `ids` (ids of other experiments add nothing).
    pub fn new<'a>(scale: Scale, jobs: Jobs, ids: impl IntoIterator<Item = &'a str>) -> Self {
        let designs = matrix::union(
            ids.into_iter()
                .filter_map(|id| matrix_experiment(&id.to_ascii_uppercase()))
                .flat_map(|(designs, _)| designs()),
        );
        Runner {
            scale,
            jobs,
            designs,
            matrix: None,
        }
    }

    /// Runs experiment `id` (`"F1"`, `"T2"`, ...); `None` for an unknown
    /// id. Matrix experiments read the shared matrix, which the first of
    /// them computes.
    pub fn run(&mut self, id: &str) -> Option<ExperimentResult> {
        let (scale, jobs) = (self.scale, self.jobs);
        let id = id.to_ascii_uppercase();
        if let Some((designs, from_matrix)) = matrix_experiment(&id) {
            return Some(from_matrix(self.matrix(&designs())));
        }
        match id.as_str() {
            "F3" => Some(static_sweep::run(scale, jobs)),
            "F5" => Some(retention_sweep::run(scale, jobs)),
            "F8" => Some(sensitivity::run(scale, jobs)),
            "A1" => Some(area::run(scale, jobs)),
            "A2" => Some(partition_style::run(scale, jobs)),
            "A3" => Some(hybrid_study::run(scale, jobs)),
            "A4" => Some(duty_cycle::run(scale, jobs)),
            "A5" => Some(prefetch_study::run_experiment(scale, jobs)),
            "A6" => Some(temperature::run(scale, jobs)),
            "A7" => Some(multitask::run(scale, jobs)),
            "M1" => Some(mrc_sweep::run(scale, jobs)),
            _ => None,
        }
    }

    /// The shared matrix, computed on first use and recomputed only if
    /// it lacks one of `designs`.
    fn matrix(&mut self, designs: &[L2Design]) -> &DesignMatrix {
        if !self.matrix.as_ref().is_some_and(|m| m.covers(designs)) {
            self.designs = matrix::union(self.designs.iter().chain(designs).copied());
            self.matrix = None;
        }
        self.matrix
            .get_or_insert_with(|| matrix::run_matrix(&self.designs, self.scale, self.jobs))
    }
}

/// Runs the complete experiment suite ([`SUITE_IDS`], in order).
///
/// The matrix experiments share one design matrix. Each experiment
/// shards its independent simulations over `jobs` threads; output is
/// bit-identical for every job count. This is the entry point of the
/// `repro` binary.
pub fn all(scale: Scale, jobs: Jobs) -> Vec<ExperimentResult> {
    let mut runner = Runner::new(scale, jobs, SUITE_IDS);
    SUITE_IDS
        .iter()
        .map(|id| runner.run(id).expect("suite ids are known"))
        .collect()
}

/// Looks up and runs a single experiment by id (`"F1"`, `"T2"`, ...).
///
/// A matrix experiment computes a matrix over its own designs only.
/// Returns `None` for an unknown id.
pub fn by_id(id: &str, scale: Scale, jobs: Jobs) -> Option<ExperimentResult> {
    Runner::new(scale, jobs, [id]).run(id)
}

/// The reports of `designs`, in order, over each app's memoized
/// `refs`-reference stream: one plan per app, apps sharded over `jobs`.
fn app_reports(
    apps: &[&str],
    designs: &[L2Design],
    refs: usize,
    jobs: Jobs,
) -> Vec<Vec<SimReport>> {
    parallel_map(jobs, apps.to_vec(), |name| {
        // Invariant: callers pass suite app names and valid constant designs.
        let app = AppProfile::by_name(name).expect("known app");
        execute(
            &Plan::new(&app, EXPERIMENT_SEED, refs, designs),
            Jobs::SERIAL,
        )
        .into_iter()
        .map(|p| p.expect("valid design").report)
        .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_check_display() {
        let c = ClaimCheck {
            claim: "C1",
            target: ">40%".into(),
            measured: "46%".into(),
            pass: true,
        };
        let s = c.to_string();
        assert!(s.contains("PASS") && s.contains("C1"));
    }

    #[test]
    fn experiment_result_render_and_pass() {
        let r = ExperimentResult {
            id: "F0",
            title: "smoke",
            table: "a b\n---\n1 2\n".into(),
            summary: "fine.".into(),
            claims: vec![ClaimCheck {
                claim: "C0",
                target: "t".into(),
                measured: "m".into(),
                pass: false,
            }],
        };
        assert!(!r.passed());
        let s = r.render();
        assert!(s.contains("## F0") && s.contains("FAIL"));
    }

    #[test]
    fn by_id_rejects_unknown() {
        assert!(by_id("F99", Scale::Quick, Jobs::SERIAL).is_none());
    }
}
