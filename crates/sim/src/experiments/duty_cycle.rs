//! A4 (extension) — energy savings versus usage duty cycle.
//!
//! Phones are idle most of the time (screen off, waiting for input); a
//! cache keeps leaking through all of it. This experiment interleaves
//! active bursts with idle gaps at several duty cycles and measures the
//! designs' savings: the lower the duty cycle, the more
//! leakage-dominated the baseline becomes and the larger the STT-RAM
//! designs' advantage — the usage regime the paper targets.

use moca_core::L2Design;
use moca_trace::AppProfile;

use crate::config::SystemConfig;
use crate::experiments::{ClaimCheck, ExperimentResult};
use crate::memo::RunMemo;
use crate::parallel::{parallel_map, Jobs};
use crate::stream::TraceStream;
use crate::system::System;
use crate::table::{pct, Table};
use crate::workloads::{Scale, EXPERIMENT_SEED};

/// App used for the duty-cycle study.
pub const APP: &str = "social";

/// Active references per burst before each idle gap.
const BURST_REFS: usize = 100_000;

/// The burst schedule of one run: bursts of [`BURST_REFS`] references
/// (the last one shorter), each padded with idle time so that
/// active/total = duty.
struct Bursts {
    refs: usize,
    duty: f64,
    /// References in finished bursts.
    done: usize,
    /// References the current burst still has to retire.
    left: usize,
    /// Cycle count when the current burst started.
    start: u64,
}

impl Bursts {
    fn new(refs: usize, duty: f64) -> Self {
        Bursts {
            refs,
            duty,
            done: 0,
            left: BURST_REFS.min(refs),
            start: 0,
        }
    }

    /// Retires `n` pure L1 hits, splitting them at every burst boundary
    /// they cross.
    fn retire_hits(&mut self, sys: &mut System, mut n: u64) {
        while n > 0 {
            let take = n.min(self.left as u64);
            sys.retire_hits(take);
            n -= take;
            self.advance(sys, take as usize);
        }
    }

    /// Counts `n` retired references; once the burst is complete, pads
    /// its active time with idle and starts the next one.
    fn advance(&mut self, sys: &mut System, n: usize) {
        self.left -= n;
        if self.left > 0 {
            return;
        }
        self.done += BURST_REFS.min(self.refs - self.done);
        let active = sys.cycles() - self.start;
        if self.duty < 1.0 {
            let idle = (active as f64 * (1.0 - self.duty) / self.duty) as u64;
            sys.idle(idle);
        }
        self.start = sys.cycles();
        self.left = BURST_REFS.min(self.refs - self.done);
    }
}

/// Runs `refs` references at the given duty cycle (fraction of wall time
/// spent active).
fn run_at_duty(design: L2Design, refs: usize, duty: f64) -> crate::metrics::SimReport {
    let app = AppProfile::by_name(APP).expect("known app");
    let mut sys = System::new(app.name, design, SystemConfig::default()).expect("valid design");
    // All twelve (duty, design) cells replay the same memoized filtered
    // run. Idle periods fall between the same two references as in a
    // per-reference run: a hit gap that spans a burst boundary is split
    // there, and the L1 decisions do not depend on time.
    let mut bursts = Bursts::new(refs, duty);
    let stream = TraceStream::new(&app, EXPERIMENT_SEED);
    let l1 = RunMemo::global().replay(stream, refs, |chunk| {
        for ev in chunk.events() {
            bursts.retire_hits(&mut sys, u64::from(ev.gap));
            sys.step_filtered(Some(&ev.demand), ev.writeback.as_ref());
            bursts.advance(&mut sys, 1);
        }
        bursts.retire_hits(&mut sys, chunk.tail_gap() as u64);
    });
    sys.adopt_l1(l1);
    sys.finish()
}

/// Runs the experiment, sharding the duty-cycle × design grid over
/// `jobs` threads.
pub fn run(scale: Scale, jobs: Jobs) -> ExperimentResult {
    let refs = scale.sweep_refs();
    let duties = [1.0, 0.5, 0.25, 0.10];
    let mut table = Table::new(vec![
        "duty cycle",
        "baseline leak share",
        "static MR saving",
        "dynamic saving",
    ]);
    let mut static_savings = Vec::new();
    let cells: Vec<(f64, L2Design)> = duties
        .iter()
        .flat_map(|&duty| {
            [
                L2Design::baseline(),
                L2Design::static_default(),
                L2Design::dynamic_default(),
            ]
            .into_iter()
            .map(move |d| (duty, d))
        })
        .collect();
    let reports = parallel_map(jobs, cells, |(duty, design)| {
        run_at_duty(design, refs, duty)
    });
    for (&duty, row) in duties.iter().zip(reports.chunks(3)) {
        let (base, stat, dynamic) = (&row[0], &row[1], &row[2]);
        let s_saving = 1.0 - stat.energy_ratio_vs(base);
        let d_saving = 1.0 - dynamic.energy_ratio_vs(base);
        static_savings.push(s_saving);
        table.row(vec![
            pct(duty),
            pct(base.l2_energy.leakage_fraction()),
            pct(s_saving),
            pct(d_saving),
        ]);
    }

    let first = static_savings[0];
    let last = *static_savings.last().expect("non-empty");
    let monotone = static_savings.windows(2).all(|w| w[1] >= w[0] - 0.01);
    let claims = vec![
        ClaimCheck {
            claim: "A4",
            target: "STT savings grow as the duty cycle drops (idle leakage dominates)".into(),
            measured: format!(
                "static saving {} at 100% duty -> {} at 10% duty",
                pct(first),
                pct(last)
            ),
            pass: last > first && monotone,
        },
        ClaimCheck {
            claim: "A4",
            target: "at 10% duty the static design saves >= 90%".into(),
            measured: pct(last),
            pass: last >= 0.90,
        },
    ];
    ExperimentResult {
        id: "A4",
        title: "Energy savings vs usage duty cycle (extension)",
        table: table.render(),
        summary: format!(
            "As idle time grows, the SRAM baseline's energy becomes almost pure \
             leakage, so the STT-RAM designs' saving climbs from {} (always active) \
             to {} at a phone-like 10% duty cycle — the reproduction's headline \
             numbers are, if anything, conservative for real usage.",
            pct(first),
            pct(last)
        ),
        claims,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_grow_with_idleness() {
        let r = run(Scale::Quick, Jobs::available());
        assert!(r.passed(), "claims failed:\n{}", r.render());
        assert!(r.table.contains("10.0%"));
    }

    #[test]
    fn duty_table_has_all_rows() {
        let r = run(Scale::Quick, Jobs::available());
        assert_eq!(
            r.table.lines().count(),
            2 + 4,
            "header + rule + 4 duty rows"
        );
    }
}
