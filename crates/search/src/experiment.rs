//! S1 — evolved Pareto front vs the hand-picked designs.
//!
//! Runs the standard seeded search ([`SearchConfig::for_scale`]) and
//! checks the headline claim of the search subsystem: the evolved
//! (energy, cycles) front **dominates-or-ties** both hand-picked
//! reference points from the paper's design study — C7, the static
//! multi-retention split (`L2Design::static_default`), and C8, the
//! dynamic STT configuration (`L2Design::dynamic_default`).
//!
//! Both references are injected into generation 0
//! ([`crate::genome::Genome::seeds`]), so they are always in the
//! evaluation archive: the claim compares the final front against the
//! *same-harness* measurement of each reference, never against an
//! external number. Because an archive member is either on the front or
//! dominated by something on it, the claim is stable by construction —
//! it pins the selection machinery (a front that *lost* a seeded
//! reference without dominating it would fail), not simulator noise.

use moca_sim::checkpoint::Journal;
use moca_sim::experiments::{ClaimCheck, ExperimentResult};
use moca_sim::parallel::Jobs;
use moca_sim::workloads::Scale;

use crate::engine::{run_search, SearchConfig, SearchOutcome};
use crate::nsga;

/// Runs the `pareto` experiment (no checkpointing).
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    run_with(scale, jobs, None)
}

/// Runs the `pareto` experiment, checkpointing each generation through
/// `journal` when one is supplied (the `repro` path).
pub fn run_with(scale: Scale, jobs: Jobs, journal: Option<&mut Journal>) -> ExperimentResult {
    let cfg = SearchConfig::for_scale(scale);
    let outcome = run_search(&cfg, jobs, journal).expect("search journal I/O");
    result_from(&outcome)
}

/// One dominates-or-ties claim against a seeded reference design.
fn reference_claim(
    outcome: &SearchOutcome,
    claim: &'static str,
    name: &str,
    label: String,
) -> ClaimCheck {
    let Some(reference) = outcome.record_for(&label) else {
        return ClaimCheck {
            claim,
            target: format!("front dominates-or-ties {name} ({label}) on (energy, cycles)"),
            measured: format!("{label} missing from the archive"),
            pass: false,
        };
    };
    // The best front witness: smallest energy among members that
    // dominate-or-tie the reference on the (energy, cycles) plane.
    let witness = outcome
        .front
        .iter()
        .map(|&i| &outcome.archive[i])
        .find(|r| nsga::dominates_or_ties_2d(&r.fitness, &reference.fitness));
    match witness {
        Some(w) => {
            let de = delta_pct(w.fitness.energy_nj, reference.fitness.energy_nj);
            let dc = delta_pct(w.fitness.cycles as f64, reference.fitness.cycles as f64);
            ClaimCheck {
                claim,
                target: format!("front dominates-or-ties {name} ({label}) on (energy, cycles)"),
                measured: format!("{} — energy {de:+.1}%, cycles {dc:+.1}% vs {name}", w.label),
                pass: true,
            }
        }
        None => ClaimCheck {
            claim,
            target: format!("front dominates-or-ties {name} ({label}) on (energy, cycles)"),
            measured: "no front member dominates-or-ties it".into(),
            pass: false,
        },
    }
}

fn delta_pct(measured: f64, reference: f64) -> f64 {
    if reference != 0.0 {
        (measured - reference) / reference * 100.0
    } else {
        0.0
    }
}

/// Builds the S1 [`ExperimentResult`] from a finished search.
pub fn result_from(outcome: &SearchOutcome) -> ExperimentResult {
    let claims = vec![
        reference_claim(
            outcome,
            "S1-C7",
            "C7",
            moca_core::L2Design::static_default().label(),
        ),
        reference_claim(
            outcome,
            "S1-C8",
            "C8",
            moca_core::L2Design::dynamic_default().label(),
        ),
    ];
    let pruned: u32 = outcome.stats.iter().map(|g| g.pruned).sum();
    let simulated: u32 = outcome.stats.iter().map(|g| g.simulated).sum();
    let cached: u32 = outcome.stats.iter().map(|g| g.cached).sum();
    ExperimentResult {
        id: "S1",
        title: "Seeded NSGA-II design-space search",
        table: outcome.render(),
        summary: format!(
            "A seeded NSGA-II loop evolved {} generation(s) of {} candidates over the full \
             design space (SRAM/STT, shared/partitioned/dynamic, per-partition retention, \
             refresh policy, adaptation epoch), minimizing (energy, cycles, area). \
             {} unique design(s) were evaluated: {} rode the analytic MRC fast path, \
             {} ran full lock-step simulation, and {} repeat proposal(s) were served from \
             the cross-generation archive. The final front has {} design(s); the hand-picked \
             C7/C8 references are seeded into generation 0, so the front must \
             dominate-or-tie both under the identical harness.",
            outcome.config.generations,
            outcome.config.population,
            outcome.archive.len(),
            pruned,
            simulated,
            cached,
            outcome.front.len(),
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_search_passes_both_reference_claims() {
        let r = run(Scale::Smoke, Jobs::available());
        assert_eq!(r.id, "S1");
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("final front:"));
        assert!(r.summary.contains("dominate-or-tie"));
    }
}
